"""The invariant basis, the independent kernel oracle, dimension series and
span comparison."""

import hashlib
import json

import pytest

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
from perpetuants.umbral import lowering_matrix, monomial_index


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


def test_monomial_index_row_is_sparse():
    index = monomial_index(3, 3)
    u = u_basis(3, 3)[0].poly
    row = index.row(u)
    assert sorted(row.values()) == [-3, 1, 3]
    assert index.poly(row.items()) == u
    with pytest.raises(ValueError, match=r"a1\^3 is not of bidegree \(3, 2\)"):
        monomial_index(3, 2).row(a(1) ** 3)


def test_row_ranks_take_sparse_rows():
    assert basis_mod.row_ranks([{1: 1}], [{0: 1}], ncols=2) == [1, 2]
    assert basis_mod.row_ranks([{1: 1}], [{0: 1, 1: 0}], [{0: 2, 1: 3}], ncols=2) == [1, 2, 2]
    assert basis_mod.row_ranks([], [{}], ncols=4) == [0, 0]


@pytest.mark.parametrize(
    "groups,ncols",
    [
        (([{2: 1}],), 2),
        (([{0: 1}], [{-1: 1}]), 2),
    ],
    ids=["column-beyond", "negative-column"],
)
def test_row_ranks_reject_rows_of_another_width(groups, ncols):
    with pytest.raises(ValueError):
        basis_mod.row_ranks(*groups, ncols=ncols)


def test_in_span():
    p = a(1) ** 2 - 2 * a(0) * a(2)
    assert in_span(p.scale(3), [p])
    assert not in_span(a(1) ** 2, [p])
    assert in_span(Poly.zero("a"), [])
