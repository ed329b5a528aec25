"""The invariant basis, the independent kernel oracle, dimension series and
span comparison."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perpetuants import (
    FamilyMismatchError,
    Poly,
    derivation_D,
    dim_series,
    is_translation_invariant,
    kernel_oracle,
    span_equal,
    stroh_series,
    u_basis,
)
from perpetuants import basis as basis_mod
from perpetuants import linalg, symfunc
from perpetuants.basis import in_span, invariant_rows, span_rank, span_ranks
from perpetuants.symfunc import partition_counts, partitions, transition_alpha
from perpetuants.perpetua import decomposable_span
from perpetuants.umbral import MonomialIndex, lowering_matrix, monomial_index


def a(i):
    return Poly.variable("a", i)


# -------------------------------------------------------------------- u_basis


def test_u_basis_3_3():
    basis = u_basis(3, 3)
    assert len(basis) == 1
    u = basis[0]
    assert u.k == (0, 1)
    assert u.poly == 3 * a(0) ** 2 * a(3) - 3 * a(0) * a(1) * a(2) + a(1) ** 3
    assert derivation_D(u.poly).is_zero()


def test_u_basis_2_2():
    basis = u_basis(2, 2)
    assert len(basis) == 1
    u = basis[0]
    assert u.k == (1,)
    # the fixed matrix normalization: a scalar multiple of a1^2 - 2 a0 a2
    assert u.poly == a(1) ** 2 - 2 * a(0) * a(2) or u.poly == 2 * a(0) * a(2) - a(1) ** 2


def test_u_basis_weight_zero():
    for n in (1, 2, 4):
        basis = u_basis(n, 0)
        assert len(basis) == 1
        assert basis[0].k == (0,) * (n - 1)
        assert basis[0].poly == a(0) ** n


def test_u_basis_empty_cells():
    assert u_basis(1, 1) == []
    assert u_basis(3, 1) == []
    assert u_basis(2, 3) == []


def test_u_basis_of_an_empty_cell_builds_no_alpha(monkeypatch):
    # S_{n,g} is empty for g >= 1 when n = 1, g = 1, or n = 2 and g is odd
    def refuse(n, g):
        raise AssertionError(f"alpha({n}, {g}) must not be built")

    for n in range(1, 6):
        for g in range(13):
            empty = dim_series(n, g)[g] == 0
            assert (invariant_rows(n, g) == []) == empty
            if empty:
                monkeypatch.setattr(basis_mod, "transition_alpha", refuse)
                assert u_basis(n, g) == []
                monkeypatch.undo()
    monkeypatch.setattr(basis_mod, "transition_alpha", refuse)
    assert u_basis(1, 10**12) == []
    assert u_basis(10**12, 1) == []
    assert u_basis(2, 10**12 + 1) == []


def test_invariant_rows_are_the_nonzero_entries_of_the_k1_zero_alpha_rows():
    for n in range(1, 7):
        for g in range(15):
            alpha = transition_alpha(n, g)
            expected = [
                (k, {j: x for j, x in enumerate(row) if x})
                for k, row in zip(alpha.cols, alpha.entries)
                if k[0] == 0
            ]
            assert invariant_rows(n, g) == expected


def test_u_basis_elements_are_integral_invariants():
    for n in (2, 3, 4):
        for g in range(0, 8):
            for u in u_basis(n, g):
                assert u.poly.is_integral()
                assert tuple(u.poly.bidegree()) == (n, g)
                assert derivation_D(u.poly).is_zero()


def test_u_basis_translation_invariance():
    for n, g in [(2, 4), (3, 5), (4, 6)]:
        for u in u_basis(n, g):
            assert is_translation_invariant(u.poly)


def test_u_basis_linear_independence():
    for n, g in [(3, 6), (4, 8), (5, 10)]:
        basis = u_basis(n, g)
        assert span_rank([u.poly for u in basis]) == len(basis)


def test_low_weight_divisibility_by_a0():
    # for n >= g every basis element is divisible by a0^(n-g)
    from perpetuants.binforms import divide_by_a0_power

    for n in range(1, 6):
        for g in range(0, n):
            for u in u_basis(n, g):
                divide_by_a0_power(u.poly, n - g)  # raises on failure


def test_invariant_element_json_schema():
    u = u_basis(3, 3)[0]
    data = json.loads(u.to_json())
    assert data["k"] == [0, 1]
    assert data["degree"] == 3
    assert data["weight"] == 3
    assert data["poly"]["family"] == "a"


# ---------------------------------------------------------------- kernel oracle


def test_kernel_2_2_by_hand():
    kernel = kernel_oracle(2, 2)
    assert len(kernel) == 1
    p = kernel[0]
    assert p == 2 * a(0) * a(2) - a(1) ** 2 or p == a(1) ** 2 - 2 * a(0) * a(2)


def test_kernel_3_1_is_zero():
    assert kernel_oracle(3, 1) == []


def test_kernel_weight_zero():
    for n in (1, 3):
        kernel = kernel_oracle(n, 0)
        assert len(kernel) == 1
        assert kernel[0] == a(0) ** n


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_matches_oracle(n):
    series = dim_series(n, 10)
    for g in range(0, 11):
        basis = [u.poly for u in u_basis(n, g)]
        kernel = kernel_oracle(n, g)
        assert len(basis) == len(kernel) == series[g]
        equal, ra, rb, ru = span_equal(basis, kernel)
        assert equal and ra == series[g]


def _lowering_matrix_by_derivation(n, g, source):
    """The D-matrix column by column: `derivation_D` applied to the `Poly`
    of each source monomial, read as a row over the weight g - 1 index
    (the route that `lowering_matrix` replaced)."""
    if not g:
        return []
    index, target = monomial_index(n, g), monomial_index(n, g - 1)
    rows = [{} for _ in target.exponents]
    for c, j in enumerate(source):
        for i, x in target.row(derivation_D(index.poly([(j, 1)]))).items():
            rows[i][c] = x
    return rows


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lowering_matrix_is_derivation_D(n):
    for g in range(13):
        index = monomial_index(n, g)
        everything = range(len(index.exponents))
        assert lowering_matrix(n, g) == _lowering_matrix_by_derivation(n, g, everything)
        for max_var in (0, 1, 3):
            source = [
                j
                for j, ev in enumerate(index.exponents)
                if all(i <= max_var for i in ev.indices())
            ]
            expected = _lowering_matrix_by_derivation(n, g, source)
            assert lowering_matrix(n, g, source) == expected
            kernel = [
                index.poly((source[j], x) for j, x in vec.items())
                for vec in linalg.nullspace(expected, ncols=len(source))
            ]
            assert kernel_oracle(n, g, max_var=max_var) == kernel


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lowering_matrix_is_the_e1_pieri_table(n):
    # D, built from partition arithmetic, and multiplication by e_1, built
    # from the Pieri count, are dual: row mu of D is e_1 * m_mu, which is
    # why the k1 = 0 rows of alpha are invariant.  The two constructions
    # stay separate so that the kernel oracle does not depend on alpha.
    for g in range(1, 15):
        table, _ = symfunc._pieri_table(n, g, 1)
        assert lowering_matrix(n, g) == table


def test_lowering_matrix_leads_at_t_plus_e1_and_frees_h1_eq_h2():
    # In canonical order row t of D leads at the monomial t + e1 with
    # entry 1, so D is already echelon, and its free columns, one kernel
    # vector each, are the monomials with h1 = h2.
    for n in range(1, 9):
        for g in range(21):
            index = monomial_index(n, g)
            matrix = lowering_matrix(n, g)
            for t, row in zip(monomial_index(n, g - 1).parts if g else (), matrix):
                lead = index.parts_position[(t[0] + 1,) + t[1:] if t else (1,)]
                assert min(row) == lead and row[lead] == 1
            width = len(index.parts)
            _, pivot_cols, _ = linalg._echelon(linalg._integer_rows(matrix, width), width)
            free = [j for j, h in enumerate(index.parts) if (h + (0, 0))[0] == (h + (0, 0))[1]]
            assert sorted(set(range(width)) - set(pivot_cols)) == free
            kernel = linalg.nullspace(matrix, width)
            assert [[j for j in vec if j in free] for vec in kernel] == [[f] for f in free]


# every kernel oracle of these cells, in this order, with max_var None then 2
ORACLE_GRID = [(n, g) for n in range(1, 7) for g in range(19)] + [
    (5, 24),
    (6, 21),
    (7, 18),
    (8, 16),
]


def test_kernel_oracle_pinned_over_grid():
    text = "".join(
        json.dumps([p.to_json_dict() for p in kernel_oracle(n, g, max_var)])
        for n, g in ORACLE_GRID
        for max_var in (None, 2)
    )
    digest = "66064aa122e95dc08de41bf5492a0f52af0d929c2403efe1ad5409f62ad34972"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.slow
def test_kernel_oracle_first_degree6_perpetuant_cell():
    # (6,31) holds the first degree-6 perpetuant: weight 2^5 - 1
    kernel = kernel_oracle(6, 31)
    assert len(kernel) == dim_series(6, 31)[31] == 154
    assert all(derivation_D(p).is_zero() for p in kernel)


# -------------------------------------------------------------- dimension series


def test_dim_series_n3():
    assert dim_series(3, 6).coefficients == [1, 0, 1, 1, 1, 1, 2]


def test_dim_series_n1():
    assert dim_series(1, 5).coefficients == [1, 0, 0, 0, 0, 0]


def test_dim_series_n4_at_6():
    assert dim_series(4, 6)[6] == 3


def test_dim_series_stops_at_parts_of_weight_gmax():
    assert dim_series(10**12, 6).coefficients == dim_series(6, 6).coefficients
    assert dim_series(10**12, 0).coefficients == [1]


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: dim_series(3, -1), "negative weight"),
        (lambda: stroh_series(3, -1), "negative weight"),
        (lambda: kernel_oracle(0, 0), "need n >= 1"),
        (lambda: u_basis(0, 0), "need n >= 1"),
    ],
    ids=["dim_series", "stroh_series", "kernel_oracle", "u_basis"],
)
def test_out_of_range_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_partition_counts_match_enumeration():
    for max_part in range(1, 8):
        for min_part in (1, 2, 3):
            counts = partition_counts(max_part, min_part)
            for g in range(30):
                assert next(counts) == len(partitions(g, max_part, min_part))


def test_partition_counts_cost_no_more_than_the_weight():
    # caps above the weight are never stored, so a huge max_part is cheap
    counts = partition_counts(10**12, 2)
    assert [next(counts) for _ in range(25)] == [len(partitions(g, g, 2)) for g in range(25)]


def test_dim_series_checks_without_enumerating(monkeypatch):
    def enumerate_partitions(*args):
        raise AssertionError("dim_series must not enumerate partitions")

    monkeypatch.setattr(symfunc, "partitions", enumerate_partitions)
    monkeypatch.setattr(basis_mod, "partitions", enumerate_partitions, raising=False)
    series = dim_series(3, 3000)
    # partitions of g into parts 2 and 3: g // 6 + 1, less one when g % 6 == 1
    assert series.coefficients == [g // 6 + (g % 6 != 1) for g in range(3001)]


# ------------------------------------------------------------------ span algebra


def test_span_equal_basis_vs_oracle():
    equal, ra, rb, ru = span_equal(
        [u.poly for u in u_basis(3, 3)], kernel_oracle(3, 3)
    )
    assert equal and (ra, rb, ru) == (1, 1, 1)


def test_span_equal_scalar_multiple():
    p = a(1) ** 2 - 2 * a(0) * a(2)
    equal, *_ = span_equal([p], [p.scale(-1)])
    assert equal


def test_span_equal_distinct_monomials():
    equal, ra, rb, ru = span_equal([a(0) * a(2)], [a(1) ** 2])
    assert not equal and ru == 2


def test_span_equal_rejects_mixed_bidegree():
    with pytest.raises(ValueError, match="mixed bidegrees"):
        span_equal([a(0) * a(2)], [a(1)])
    with pytest.raises(ValueError, match="mixed bidegrees"):
        span_rank([a(0) * a(2), a(1)])
    with pytest.raises(ValueError, match="mixed bidegrees"):
        in_span(a(1), [a(0) * a(2)])
    with pytest.raises(ValueError, match="mixed bidegrees"):
        span_ranks([a(0) * a(2)], [], [a(1)])
    # a single poly that is not homogeneous-isobaric
    with pytest.raises(ValueError, match="mixed bidegrees"):
        span_rank([a(0) * a(2) + a(1)])
    # the index comes from the first nonzero poly, not the first group
    with pytest.raises(ValueError, match="mixed bidegrees"):
        span_ranks([Poly.zero("a")], [a(0) * a(2)], [a(1)])
    # L1^2 has the exponents of a1^2 but is not an a-polynomial
    with pytest.raises(FamilyMismatchError):
        span_rank([Poly.variable("L", 1) ** 2])


def test_span_ranks_are_ranks_of_growing_unions():
    zero = Poly.zero("a")
    basis = [u.poly for u in u_basis(4, 6)]
    outside = a(0) * a(1) * a(2) * a(3)
    groups = [[zero, kernel_oracle(4, 6)[0]], [zero], basis + [zero, outside]]
    union, expected = [], []
    for group in groups:
        union = union + group
        expected.append(span_rank(union))
    assert span_ranks(*groups) == expected == [1, 1, 4]
    assert span_ranks([zero], [zero]) == [0, 0]
    assert span_ranks() == []


@st.composite
def span_pairs(draw):
    """Two lists of a-polynomials of one cell, and whether b_list has a
    poly outside span(a_list).  a_list lives on every monomial but the
    last; b_list holds zero polys, repeats and Fraction multiples of
    a_list's polys, their combinations, and maybe the last monomial."""
    n, g = draw(st.sampled_from([(3, 6), (4, 6), (4, 8), (5, 7)]))
    index = monomial_index(n, g)
    width = len(index.parts)
    coefficient = st.integers(-3, 3)
    zero = Poly.zero("a")
    a_list = [
        index.poly((j, draw(coefficient)) for j in range(width - 1))
        for _ in range(draw(st.integers(0, 5)))
    ]
    b_list = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["zero", "repeat", "fraction", "combination"]))
        if kind == "zero" or not a_list:
            b_list.append(zero)
        elif kind == "repeat":
            b_list.append(draw(st.sampled_from(a_list)))
        elif kind == "fraction":
            b_list.append(draw(st.sampled_from(a_list)).scale(Fraction(draw(st.integers(1, 5)), 3)))
        else:
            p, q = draw(st.sampled_from(a_list)), draw(st.sampled_from(a_list))
            b_list.append(p.scale(draw(coefficient)) + q.scale(draw(coefficient)))
    outside = draw(st.booleans())
    if outside:
        b_list.insert(draw(st.integers(0, len(b_list))), index.poly([(width - 1, 1)]))
    return a_list + draw(st.lists(st.just(zero), max_size=2)), b_list, outside


@given(span_pairs())
@settings(max_examples=150, deadline=None)
def test_span_equal_ranks_are_the_three_span_ranks(pair):
    a_list, b_list, outside = pair
    equal, *ranks = span_equal(a_list, b_list)
    rank_a, rank_b, rank_union = ranks
    assert ranks == [span_rank(a_list), span_rank(b_list), span_rank(a_list + b_list)]
    assert equal == (rank_a == rank_b == rank_union)
    if outside:
        assert rank_union == rank_a + 1 and not equal
    else:
        assert rank_union == rank_a


def test_monomial_index_row_is_sparse():
    index = monomial_index(3, 3)
    u = u_basis(3, 3)[0].poly
    row = index.row(u)
    assert sorted(row.values()) == [-3, 1, 3]
    assert index.poly(row.items()) == u
    with pytest.raises(ValueError, match=r"a1\^3 is not of bidegree \(3, 2\)"):
        monomial_index(3, 2).row(a(1) ** 3)


def test_monomial_index_poly_sums_repeated_positions():
    # distinct positions are taken as they are; repeated ones are summed
    index = monomial_index(3, 3)
    ev = index.exponents
    assert index.poly([(0, 2), (2, -1), (0, 0)]) == Poly("a", {ev[0]: 2, ev[2]: -1})
    assert index.poly([(0, 2), (2, -1), (0, 3)]) == Poly("a", {ev[0]: 5, ev[2]: -1})
    assert index.poly([(0, 2), (2, -1), (0, -2)]) == Poly("a", {ev[2]: -1})
    half = index.poly([(1, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert half == Poly("a", {ev[1]: 1}) and type(half.coefficient(ev[1])) is int


def test_row_ranks_take_sparse_rows():
    assert basis_mod.row_ranks([{1: 1}], [{0: 1}], ncols=2) == [1, 2]
    assert basis_mod.row_ranks([{1: 1}], [{0: 1, 1: 0}], [{0: 2, 1: 3}], ncols=2) == [1, 2, 2]
    assert basis_mod.row_ranks([], [{}], ncols=4) == [0, 0]


@pytest.mark.parametrize(
    "groups,ncols",
    [
        (([{2: 1}],), 2),
        (([{0: 1}], [{-1: 1}]), 2),
        (([{0: 1}, {1: 2}], [{1: 1}, {0: 1, 2: 3}]), 2),
    ],
    ids=["column-beyond", "negative-column", "column-beyond-in-second-group"],
)
def test_row_ranks_reject_rows_of_another_width(groups, ncols):
    with pytest.raises(ValueError):
        basis_mod.row_ranks(*groups, ncols=ncols)
    if len(groups) == 2:
        with pytest.raises(ValueError):
            linalg.union_ranks(*groups, ncols=ncols)


def test_in_span():
    p = a(1) ** 2 - 2 * a(0) * a(2)
    assert in_span(p.scale(3), [p])
    assert not in_span(a(1) ** 2, [p])
    assert in_span(Poly.zero("a"), [])


# ------------------------------------------------- rows kept by index-built polys


def hashed_row(index, p):
    """p's row over `index`, by a lookup of every monomial."""
    return {index.position[ev]: c for ev, c in p.items()}


def unmemoized(polys):
    """Copies of polys built from their terms alone, which keep no row."""
    return [Poly("a", dict(p.items())) for p in polys]


ROW_CELLS = [(n, g) for n in range(3, 9) for g in (0, 2, 5, 8, 11)]


@pytest.mark.parametrize("n,g", ROW_CELLS)
def test_kept_rows_equal_the_hashed_rows(n, g):
    index = monomial_index(n, g)
    kernel = kernel_oracle(n, g)
    groups = {
        "kernel": kernel,
        "kernel a0..a3": kernel_oracle(n, g, max_var=3),
        "u_basis": [u.poly for u in u_basis(n, g)],
        "decomposables": decomposable_span(n, g),
    }
    for name, polys in groups.items():
        for p in polys:
            assert p.row_over(index.exponents) is not None, name
            assert index.row(p) == hashed_row(index, p), name
        copies = unmemoized(polys)
        assert all(p.row_over(index.exponents) is None for p in copies)
        assert span_equal(kernel, polys) == span_equal(unmemoized(kernel), copies), name
        for p, copy in zip(polys[:3], copies):
            assert in_span(p, kernel) == in_span(copy, unmemoized(kernel)) == in_span(p, copies[::-1]), name
            assert in_span(p, kernel)


class NoLookups(dict):
    """A position map that fails the test on any lookup."""

    def __getitem__(self, key):
        raise AssertionError(f"looked up {key}")

    get = __contains__ = __getitem__


def test_kernel_and_basis_are_ranked_without_a_monomial_lookup(monkeypatch):
    kernel = kernel_oracle(5, 24)
    ub = [u.poly for u in u_basis(5, 24)]
    expected = span_equal(unmemoized(kernel), unmemoized(ub))
    assert expected == (True, 42, 42, 42)
    monkeypatch.setattr(monomial_index(5, 24), "position", NoLookups())
    assert span_equal(kernel, ub) == expected
    assert in_span(kernel[0], kernel)
    assert in_span(ub[-1], kernel)
    assert span_rank(kernel + ub) == 42


def test_a_kept_row_cannot_be_changed_through_row():
    index = monomial_index(5, 12)
    kernel = kernel_oracle(5, 12)
    p = kernel[1]
    terms, expected = p.terms(), hashed_row(index, p)
    row = index.row(p)
    row[0] = 99
    row.clear()
    assert index.row(p) == expected
    assert p.terms() == terms
    assert span_rank(kernel) == len(kernel)
    assert span_equal(kernel, unmemoized(kernel)) == (True,) + (len(kernel),) * 3


def test_a_row_handed_to_poly_stays_the_callers():
    # changing the dict after the Poly is built reaches neither its terms
    # nor the row its index reads, so ranks stay right
    index = monomial_index(5, 12)
    (k, row), *_ = invariant_rows(5, 12)
    u = basis_mod.InvariantElement.from_alpha_row(5, 12, k, row)
    kernel = kernel_oracle(5, 12)
    given = dict(hashed_row(index, kernel[0]))
    p = index.poly(given)
    terms, u_terms, u_row = p.terms(), u.poly.terms(), dict(row)
    given.clear()
    given[0] = 1
    row.clear()
    assert p.terms() == terms and index.row(p) == hashed_row(index, p)
    assert u.poly.terms() == u_terms and index.row(u.poly) == u_row
    assert in_span(p, kernel) and in_span(u.poly, kernel)
    assert span_equal([p], kernel[:1]) == (True, 1, 1, 1)


def test_a_kept_row_is_read_by_its_own_index_only():
    p = kernel_oracle(5, 12)[0]
    with pytest.raises(ValueError, match=r"mixed bidegrees: .* is not of bidegree \(5, 11\)") as error:
        monomial_index(5, 11).row(p)
    named = Poly.parse(str(error.value).split(": ")[1].split(" is not")[0])
    assert next(iter(named.exponents())) in p.exponents()
    # an index of the same bidegree that did not build p looks every monomial up
    other = MonomialIndex(5, 12)
    assert p.row_over(other.exponents) is None
    assert other.row(p) == hashed_row(other, p) == monomial_index(5, 12).row(p)


@pytest.mark.parametrize(
    "coefficients",
    [
        {0: 2, 2: 0},
        {0: Fraction(4, 2), 1: Fraction(1, 2)},
        {True: 1},
        [(0, 2), (0, 3)],
        [(0, 2), (1, -1)],
    ],
    ids=["zero", "fractions", "bool", "repeated-pairs", "pairs"],
)
def test_poly_keeps_no_row_of_what_it_sums(coefficients):
    index = monomial_index(3, 3)
    ev = index.exponents
    items = coefficients.items() if isinstance(coefficients, dict) else coefficients
    summed = Poly("a", [(ev[j], c) for j, c in items])
    p = index.poly(coefficients)
    assert p == summed
    assert p.row_over(ev) is None
    assert index.row(p) == hashed_row(index, p)


def test_derived_polys_keep_no_row():
    index = monomial_index(4, 8)
    p = kernel_oracle(4, 8)[0]
    assert p.row_over(index.exponents) is not None
    derived = [
        p + p,
        p - p.scale(2),
        -p,
        p.scale(3),
        3 * p,
        p * Poly.constant("a", 1),
        p.substitute(8, Poly.variable("a", 8)),
        Poly.from_json(p.to_json()),
        Poly.from_json_dict(p.to_json_dict()),
        p.primitive_part(),
    ]
    for q in derived:
        assert q.row_over(index.exponents) is None
        assert q.is_zero() or index.row(q) == hashed_row(index, q)
    assert Poly.from_json(p.to_json()) == p == -(-p)
