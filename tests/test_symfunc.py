"""Symmetric-function side: partitions, transition matrices, the bar
reduction, p_h / q_n and leading exponents."""

import gc
import hashlib
import math
import random
import re
import time
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from linalg_reference import matmul

from perpetuants import (
    ExponentVector,
    Partition,
    Poly,
    bar_reduce,
    e_monomial,
    leading_exponent,
    leading_monomial,
    monomial_sum,
    p_h,
    partitions,
    partitions_at_most,
    q_n,
    q_n_leading_monomial,
    reduced_e_leading_monomial,
    transition_alpha,
    transition_beta,
)
from perpetuants import polycore, symfunc
from perpetuants.symfunc import alpha_invariant_rows, e_indices, elementary, partition_parts


def L(i):
    return Poly.variable("L", i)


# ---------------------------------------------------------------- partitions


def test_partition_validation():
    assert Partition((4, 2)).weight() == 6
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((1, 0))


def test_partition_printing():
    assert str(Partition((4, 2))) == "4+2"
    assert Partition((4, 2)).to_string(3) == "4+2+0"
    assert str(Partition(())) == "0"


def test_partitions_with_part_bounds():
    got = [p.parts for p in partitions(6, 4, 2)]
    assert got == [(4, 2), (3, 3), (2, 2, 2)]


def test_partitions_of_zero():
    assert [p.parts for p in partitions(0, 5, 1)] == [()]


def test_partitions_none_fit():
    assert partitions(1, 3, 2) == []


def test_partitions_reverse_lex():
    got = [p.parts for p in partitions(5, 5, 1)]
    assert got == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]


def test_partitions_at_most_counts():
    # partitions of 6 with at most 3 parts
    got = [p.parts for p in partitions_at_most(6, 3)]
    assert got == [(6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (2, 2, 2)]


def test_partition_parts_equal_the_recursive_partitions():
    # the iterative refill gives the reverse-lexicographic list of
    # `partitions`, kept to at most max_parts parts, for every max_parts
    for n in range(0, 11):
        for g in range(26):
            got = partition_parts(g, n)
            assert type(got) is tuple and all(type(h) is tuple for h in got)
            assert got == tuple(p.parts for p in partitions(g, g) if len(p) <= n)
            assert tuple(p.parts for p in partitions_at_most(g, n)) == got
    assert partition_parts(0, 0) == ((),) and partition_parts(3, 0) == ()
    with pytest.raises(ValueError, match="negative weight"):
        partition_parts(-1, 3)


def test_partitions_at_most_equal_the_validated_partitions():
    # partitions_at_most builds its partitions unchecked; each one equals,
    # hashes as and has the type of the checked Partition of its parts,
    # and a Partition built anywhere else is still checked
    for n in range(1, 9):
        for g in range(31):
            got = partitions_at_most(g, n)
            validated = [Partition(p.parts) for p in got]
            assert list(got) == validated
            assert [hash(p) for p in got] == [hash(p) for p in validated]
            assert all(type(p) is Partition and type(p.parts) is tuple for p in got)
            assert [p.parts for p in got] == [
                p.parts for p in partitions(g, g) if len(p) <= n
            ]
    with pytest.raises(ValueError):
        Partition((1, 2))


# ------------------------------------------------------------ monomial sums


def test_monomial_sum_210():
    m = monomial_sum((2, 1, 0), 3)
    expected = (
        L(1) ** 2 * L(2) + L(1) ** 2 * L(3) + L(2) ** 2 * L(1)
        + L(2) ** 2 * L(3) + L(3) ** 2 * L(1) + L(3) ** 2 * L(2)
    )
    assert m == expected


def test_monomial_sum_111():
    assert monomial_sum((1, 1, 1), 3) == L(1) * L(2) * L(3)


def test_monomial_sum_single_part_two_vars():
    assert monomial_sum((3,), 2) == L(1) ** 3 + L(2) ** 3


def test_monomial_sum_too_many_parts():
    with pytest.raises(ValueError):
        monomial_sum((1, 1, 1), 2)


def test_elementary():
    assert elementary(3, 3) == L(1) * L(2) * L(3)
    assert elementary(0, 3) == Poly.constant("L", 1)
    assert elementary(4, 3).is_zero()


def test_e_monomial_expansions():
    assert e_monomial((0, 0, 1), 3) == L(1) * L(2) * L(3)
    # e1*e2 = m_{2,1} + 3 m_{1,1,1}
    assert e_monomial((1, 1, 0), 3) == monomial_sum((2, 1), 3) + monomial_sum(
        (1, 1, 1), 3
    ).scale(3)
    # e1^3 = m_3 + 3 m_{2,1} + 6 m_{1,1,1}
    assert e_monomial((3, 0, 0), 3) == monomial_sum((3,), 3) + monomial_sum(
        (2, 1), 3
    ).scale(3) + monomial_sum((1, 1, 1), 3).scale(6)


# ------------------------------------------------------ transition matrices


def test_beta_3_3():
    beta = transition_beta(3, 3)
    assert [p.parts for p in beta.rows] == [(3,), (2, 1), (1, 1, 1)]
    assert beta.cols == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]
    assert beta.entries == [[1, 0, 0], [3, 1, 0], [6, 3, 1]]


def test_beta_1_2():
    assert transition_beta(1, 2).entries == [[1]]


def test_beta_2_2():
    beta = transition_beta(2, 2)
    assert [p.parts for p in beta.rows] == [(2,), (1, 1)]
    assert beta.entries == [[1, 0], [2, 1]]


def test_alpha_3_3():
    alpha = transition_alpha(3, 3)
    assert alpha.entries == [[1, 0, 0], [-3, 1, 0], [3, -3, 1]]
    # column h of alpha expands m_h: m_3 = e1^3 - 3 e1e2 + 3 e3
    m3 = Poly.zero("L")
    for j, k in enumerate(alpha.cols):
        m3 = m3 + e_monomial(k, 3).scale(alpha.entries[j][0])
    assert m3 == monomial_sum((3,), 3)


def test_alpha_2_2():
    alpha = transition_alpha(2, 2)
    # m_2 = e1^2 - 2 e2 ; m_{1,1} = e2
    assert alpha.entries == [[1, 0], [-2, 1]]


@pytest.mark.parametrize("n,g", [(n, g) for n in range(1, 6) for g in range(0, 9)])
def test_alpha_beta_identity(n, g):
    beta = transition_beta(n, g)
    alpha = transition_alpha(n, g)
    size = len(beta.rows)
    prod = matmul(alpha.entries, beta.entries)
    assert prod == [[int(i == j) for j in range(size)] for i in range(size)]


@pytest.mark.parametrize("n,g", [(3, 5), (4, 6), (5, 7)])
def test_beta_triangularity_recorded(n, g):
    # under the reverse-lexicographic pairing beta is LOWER unitriangular
    # with nonnegative entries.  transition_alpha does not read beta; the
    # same order makes its Pieri step lead with m_h, checked on every call.
    beta = transition_beta(n, g)
    size = len(beta.rows)
    for i in range(size):
        assert beta.entries[i][i] == 1
        for j in range(i + 1, size):
            assert beta.entries[i][j] == 0
        for j in range(size):
            assert beta.entries[i][j] >= 0


# every transition matrix of these cells, in this order, hashed through to_json
GRID = (
    [(n, g) for n in range(1, 7) for g in range(19)]
    + [(7, g) for g in range(15)]
    + [(8, g) for g in range(13)]
)


@pytest.mark.parametrize(
    "f,digest",
    [
        (transition_alpha, "91edfbd2fe8a98c911385da7134e73da063a65cc72833df9848dd17599628287"),
        (transition_beta, "b429943e7d2d2215d650c874503f0704bbcd9080b517f1b11bb4abe2bca5b1fd"),
    ],
    ids=["alpha", "beta"],
)
def test_transition_matrices_pinned_over_grid(f, digest):
    text = "".join(f(n, g).to_json() for n, g in GRID)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "corrupt,h",
    [
        # the coefficient of m_(3,2) in e_2 * m_(2,1) read as 2
        (lambda expansion: {j: 2 * c for j, c in expansion.items()}, "3+2"),
        # an extra m_(5), earlier than (3,2), in e_2 * m_(2,1)
        (lambda expansion: {0: 1} | expansion, "3+2"),
    ],
    ids=["leading-count", "earlier-partition"],
)
def test_alpha_rejects_a_corrupted_pieri_count(monkeypatch, corrupt, h):
    table = symfunc._pieri_table

    def corrupted(n, g, i):
        rows, position = table(n, g, i)
        if (n, g, i) == (3, 5, 2):
            rows = [corrupt(expansion) for expansion in rows]
        return rows, position

    transition_alpha.cache_clear()
    symfunc._entries.cache_clear()
    monkeypatch.setattr(symfunc, "_pieri_table", corrupted)
    with pytest.raises(AssertionError, match=rf"\(3,5\) .* h = {re.escape(h)}$"):
        transition_alpha(3, 5)
    monkeypatch.undo()
    # the failed cell is not cached
    assert matmul(transition_alpha(3, 5).entries, transition_beta(3, 5).entries) == [
        [int(i == j) for j in range(5)] for i in range(5)
    ]


@pytest.mark.parametrize("direction", ["alpha", "beta"])
def test_an_n_part_pieri_step_with_a_second_term_is_rejected(monkeypatch, direction):
    # e_3 * m_(2,1) in three variables is m_(3,2,1) alone; an extra m_(2,2,2)
    # would still lead with m_h, so only the i = n check catches it
    table = symfunc._pieri_table

    def corrupted(n, g, i):
        rows, position = table(n, g, i)
        if (n, g, i) == (3, 6, 3):
            rows = [dict(expansion) for expansion in rows]
            rows[position[(2, 1)]][len(partitions_at_most(6, 3)) - 1] = 1
        return rows, position

    symfunc._entries.cache_clear()
    monkeypatch.setattr(symfunc, "_pieri_table", corrupted)
    with pytest.raises(
        AssertionError, match=r"^the \(3,6\) Pieri expansion of e_3 \* m_mu at mu = 2\+1 "
    ):
        symfunc._entries(3, 6, direction, 0)
    monkeypatch.undo()
    symfunc._entries.cache_clear()
    assert matmul(transition_alpha(3, 6).entries, transition_beta(3, 6).entries) == [
        [int(i == j) for j in range(7)] for i in range(7)
    ]


@pytest.mark.parametrize("direction", ["alpha", "beta"])
def test_column_nonzero_above_its_row_is_rejected(monkeypatch, direction):
    # a 1 in the first row of every column of the (3,3) matrix reaches
    # row 4+1 of column 3+2 of (3,5), above its own row
    entries = symfunc._entries.__wrapped__

    def corrupted(n, g, direction, zeros):
        out = entries(n, g, direction, zeros)
        if (n, g) == (3, 3):
            out = [[1] * len(out[0])] + out[1:]
        return out

    monkeypatch.setattr(symfunc, "_entries", corrupted)
    with pytest.raises(AssertionError, match=rf"\(3,5\) {direction} column at h = 3\+2 is not zero"):
        corrupted(3, 5, direction, 0)


# the same three assertions on a build of the k1 = 0 rows alone


def _k1_zero_rows(n, g):
    alpha = transition_alpha(n, g)
    return [(k, row) for k, row in zip(alpha.cols, alpha.entries) if k[0] == 0]


def test_k1_zero_rows_are_those_of_the_whole_alpha():
    for n, g in GRID:
        assert alpha_invariant_rows(n, g) == _k1_zero_rows(n, g), (n, g)


def test_a_k1_zero_build_rejects_a_pieri_step_not_led_by_m_h(monkeypatch):
    table = symfunc._pieri_table

    def corrupted(n, g, i):
        rows, position = table(n, g, i)
        if (n, g, i) == (3, 5, 2):
            rows = [{0: 1} | expansion for expansion in rows]
        return rows, position

    symfunc._entries.cache_clear()
    monkeypatch.setattr(symfunc, "_pieri_table", corrupted)
    with pytest.raises(AssertionError, match=r"^the \(3,5\) Pieri step does not lead with m_h at h = 3\+2$"):
        alpha_invariant_rows(3, 5)
    monkeypatch.undo()
    # the failed cell is not cached
    assert alpha_invariant_rows(3, 5) == _k1_zero_rows(3, 5)


def test_a_k1_zero_build_rejects_an_n_part_pieri_step_with_a_second_term(monkeypatch):
    table = symfunc._pieri_table

    def corrupted(n, g, i):
        rows, position = table(n, g, i)
        if (n, g, i) == (3, 6, 3):
            rows = [dict(expansion) for expansion in rows]
            rows[position[(2, 1)]][len(partitions_at_most(6, 3)) - 1] = 1
        return rows, position

    symfunc._entries.cache_clear()
    monkeypatch.setattr(symfunc, "_pieri_table", corrupted)
    with pytest.raises(
        AssertionError, match=r"^the \(3,6\) Pieri expansion of e_3 \* m_mu at mu = 2\+1 "
    ):
        alpha_invariant_rows(3, 6)


def test_a_k1_zero_build_rejects_a_column_nonzero_above_its_row(monkeypatch):
    # the one k1 = 0 row of (3,4), at 2+2, read as all ones: raised by e_3
    # it is row 3+3+1 of (3,7), above column 3+2+2, whose parent is 2+1+1
    entries = symfunc._entries.__wrapped__

    def corrupted(n, g, direction, zeros):
        out = entries(n, g, direction, zeros)
        if (n, g) == (3, 4):
            assert len(out) == 1
            out = [[1] * len(out[0])]
        return out

    monkeypatch.setattr(symfunc, "_entries", corrupted)
    with pytest.raises(AssertionError, match=r"\(3,7\) alpha column at h = 3\+2\+2 is not zero"):
        corrupted(3, 7, "alpha", 1)


@pytest.mark.parametrize("n,g", [(n, g) for n in range(1, 6) for g in range(0, 11)])
def test_beta_counts_match_e_monomial_expansion(n, g):
    # independent route: expand e^k as an L-polynomial and read off the
    # coefficient of the sorted monomial L^h
    beta = transition_beta(n, g)
    assert beta.rows == partitions_at_most(g, n)
    assert beta.cols == e_indices(n, g)
    for i, h in enumerate(beta.rows):
        ev = ExponentVector({j + 1: e for j, e in enumerate(h.padded(n)) if e})
        for j, k in enumerate(beta.cols):
            assert beta.entries[i][j] == e_monomial(k, n).coefficient(ev)


def _count_01_matrices(col_sums, row_sizes, memo):
    """Number of 0-1 matrices with the given column sums and row sizes.

    col_sums is weakly decreasing and positive.  The first row takes any
    row_sizes[0] distinct columns; what remains is again a count of this
    kind, and only the multiset of remaining column sums matters, so the
    state is kept sorted and memoised in `memo`.
    """
    if not row_sizes:
        return int(not col_sums)
    key = (col_sums, row_sizes)
    if key not in memo:
        total = 0
        # every row meets a column at most once
        if col_sums[0] <= len(row_sizes):
            for chosen in combinations(range(len(col_sums)), row_sizes[0]):
                left = list(col_sums)
                for c in chosen:
                    left[c] -= 1
                left = tuple(sorted(filter(None, left), reverse=True))
                total += _count_01_matrices(left, row_sizes[1:], memo)
        memo[key] = total
    return memo[key]


def _beta_by_counting(n, g):
    """The beta entries as counts of 0-1 matrices with column sums h and
    k_i rows of size i (Macdonald, I.6), the reference for the Pieri step."""
    row_sizes = [
        tuple(i for i in range(n, 0, -1) for _ in range(k[i - 1]))
        for k in e_indices(n, g)
    ]
    memo = {}
    return [
        [_count_01_matrices(h.parts, sizes, memo) for sizes in row_sizes]
        for h in partitions_at_most(g, n)
    ]


@pytest.mark.parametrize("n,g", [(n, g) for n in range(1, 8) for g in range(13)])
def test_beta_matches_01_matrix_counts(n, g):
    assert transition_beta(n, g).entries == _beta_by_counting(n, g)


@pytest.mark.slow
def test_beta_column_of_e1_power_is_multinomial_at_degree_6():
    # column (g, 0, ..., 0) is e_1^g = sum over h of g!/(h_1! ... h_n!) m_h
    n, g = 6, 25
    beta = transition_beta(n, g)
    assert beta.cols[0] == (g,) + (0,) * (n - 1)
    for h, row in zip(beta.rows, beta.entries):
        assert row[0] == math.factorial(g) // math.prod(
            math.factorial(p) for p in h.parts
        ), h


def _e_indices_reference(n, g):
    """Every k with sum i*k_i = g, sorted descending by the suffix sums
    (k_1 + ... + k_n, k_2 + ... + k_n, ..., k_n)."""

    def rec(i, remaining):
        if i > n:
            if remaining == 0:
                yield ()
            return
        for x in range(remaining // i + 1):
            for rest in rec(i + 1, remaining - i * x):
                yield (x,) + rest

    return sorted(
        rec(1, g), key=lambda k: tuple(sum(k[j:]) for j in range(n)), reverse=True
    )


def test_e_indices_match_enumeration_sorted_by_suffix_sums():
    for n in range(1, 8):
        for g in range(21):
            assert e_indices(n, g) == _e_indices_reference(n, g), (n, g)


def test_matrix_json_schema():
    import json

    data = json.loads(transition_beta(2, 2).to_json())
    assert data["direction"] == "beta"
    assert data["rows"] == [[2], [1, 1]]
    assert data["cols"] == [[2, 0], [0, 1]]
    assert data["entries"] == [["1", "0"], ["2", "1"]]


# -------------------------------------------------------------- bar reduction


def test_bar_reduce_e1_vanishes():
    assert bar_reduce(elementary(1, 3), 3).is_zero()


def test_bar_reduce_e2_two_vars():
    assert bar_reduce(elementary(2, 2), 2) == -(L(1) ** 2)


def test_bar_reduce_product():
    assert bar_reduce(L(1) * L(2) * L(3), 3) == -(L(1) ** 2) * L(2) - L(1) * L(2) ** 2


# ----------------------------------------------------------------- p_h, q_n


def test_p1_three_vars():
    assert p_h(3, 1) == bar_reduce(L(1) * L(2) * L(3), 3)


def test_p_h_degrees():
    assert p_h(4, 2).total_degree() == 3  # half of binom(4,2)
    assert p_h(5, 2).total_degree() == 10  # binom(5,2)


def test_p_h_range_errors():
    with pytest.raises(ValueError):
        p_h(3, 2)
    with pytest.raises(ValueError):
        p_h(4, 0)


def test_p2_for_four_vars_symmetric_up_to_sign():
    # the half-product at n = 2h stays symmetric in the reduced variables,
    # up to the sign left free by the factor ordering
    p = p_h(4, 2)
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        swapped = _swap(p, i, j)
        assert swapped == p or swapped == -p


def _swap(p, i, j):
    spare = 99
    return p.substitute(i, L(spare)).substitute(j, L(i)).substitute(spare, L(j))


def test_q3():
    assert q_n(3) == -(L(1) ** 2) * L(2) - L(1) * L(2) ** 2
    assert q_n(3).total_degree() == 3


def test_q_degrees():
    assert q_n(4).total_degree() == 7
    assert q_n(5).total_degree() == 15


def test_q_n_needs_three():
    with pytest.raises(ValueError):
        q_n(2)


def _subsets(n, h):
    """The index sets T of the linear forms of p_h, in the order of p_h."""
    if 2 * h < n:
        return list(combinations(range(1, n + 1), h))
    return [(1,) + rest for rest in combinations(range(2, n + 1), h - 1)]


def _poly_product_of_forms(n, hs):
    """The product of the reduced forms of p_h over h in hs, by Poly.__mul__."""
    ln = -sum((L(j) for j in range(1, n)), Poly.zero("L"))
    out = Poly.constant("L", 1)
    for h in hs:
        for T in _subsets(n, h):
            out = out * sum((ln if i == n else L(i) for i in T), Poly.zero("L"))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_p_h_and_q_n_match_poly_products(n):
    for h in range(1, n // 2 + 1):
        assert p_h(n, h) == _poly_product_of_forms(n, [h])
    if n >= 3:
        assert q_n(n) == _poly_product_of_forms(n, range(1, n // 2 + 1))


def test_q6_matches_its_linear_forms_at_integer_points():
    n = 6
    q = q_n(n)
    assert q.is_integral()
    forms = [T for h in range(1, n // 2 + 1) for T in _subsets(n, h)]
    assert len(forms) == 31
    rng = random.Random(6)
    checked = 0
    while checked < 4:
        point = {i: rng.randint(-9, 9) for i in range(1, n)}
        point[n] = -sum(point.values())
        expected = math.prod(sum(point[i] for i in T) for T in forms)
        if not expected:
            continue  # a vanishing form would make the comparison weak
        value = sum(
            int(q.coefficient(ev)) * math.prod(point[i] ** e for i, e in ev.entries)
            for ev in q.exponents()
        )
        assert value == expected
        checked += 1


def _forms_product(forms):
    out = Poly.constant("L", 1)
    for form in forms:
        out = out * sum((c * L(j) for j, c in form.items()), Poly.zero("L"))
    return out


def _assert_expands(forms, n):
    got = symfunc._expand_forms(forms, n)
    assert got == _forms_product(forms)
    # the expansion hands its terms over in canonical order, which on a
    # homogeneous product is lex-descending on the dense exponent vector
    assert got.terms() == sorted(
        got.items(), key=lambda term: [-e for e in term[0].as_tuple(n - 1, first_index=1)]
    )


_coefficients = st.integers(-9, 9)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.dictionaries(st.integers(1, n - 1), _coefficients, min_size=1),
                min_size=1,
                max_size=10,
            ),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_expand_forms_equals_the_poly_product(case):
    # mixed signs in one form leave negative values next to positive ones
    # in neighbouring 64-bit slots
    n, forms = case
    _assert_expands(forms, n)


def test_expand_forms_near_the_slot_bound():
    # the l1 bound 18^15 is 2^62.5; the largest coefficient is 2^60.2
    forms = [{1: 9, 2: -9}] * 15
    _assert_expands(forms, 3)
    largest = max(abs(c) for _, c in symfunc._expand_forms(forms, 3).items())
    assert largest == 9**15 * math.comb(15, 7)
    assert largest.bit_length() == 61


def test_expand_forms_refuses_a_bound_of_two_to_the_63():
    assert symfunc._expand_forms([{1: 2}] * 62, 2) == Poly.monomial(
        "L", ExponentVector({1: 62}), 2**62
    )
    with pytest.raises(ValueError, match=r"bound 2\^63\.0"):
        symfunc._expand_forms([{1: 2}] * 63, 2)


def test_expansion_refuses_a_slot_above_its_degree(monkeypatch):
    # (L1 + L2)^2 packs L1 and L2 with two exponents each into 9 slots; the
    # top slot, L1^2 * L2^2, has degree 4 and is empty.  A unit planted
    # there by the last Horner step is reported by its slot, from the
    # decode's table, before the coefficient sum (5, not 4) is checked.
    forms = [{1: 1, 2: 1}] * 2
    assert symfunc._expand_forms(forms, 4) == (L(1) + L(2)) ** 2
    times_form = symfunc._times_form
    calls = []

    def planted(acc, steps):
        calls.append(steps)
        product = times_form(acc, steps)
        return product + (1 << 64 * 8) if len(calls) == len(forms) else product

    monkeypatch.setattr(symfunc, "_times_form", planted)
    with pytest.raises(AssertionError, match=r"^slot 8 has degree above 2$"):
        symfunc._expand_forms(forms, 4)
    assert len(calls) == 2


def test_only_the_expansion_is_read_in_the_order_it_was_built(monkeypatch):
    # terms() of an expansion sorts nothing; a Poly derived from one sorts
    # its terms again, counted by the calls of the sort key
    canon_key = polycore._canon_key
    calls = []

    def counted(ev):
        calls.append(ev)
        return canon_key(ev)

    def in_order(poly):
        return sorted(poly.items(), key=lambda term: canon_key(term[0]))

    monkeypatch.setattr(polycore, "_canon_key", counted)
    n = 5
    q = q_n(n)
    derived = {
        "-q": -q,
        "q + p": q + p_h(n, 2),
        "q * L(1)": q * L(1),
        "q.substitute": q.substitute(2, L(1) - L(3)),
        "from_json": Poly.from_json(q.to_json()),
        "bar_reduce": bar_reduce(q, n - 1),
    }
    calls.clear()
    assert q.terms() == in_order(q)
    assert calls == []
    for name, poly in derived.items():
        calls.clear()
        terms = poly.terms()
        assert len(calls) == len(poly), name
        assert terms == in_order(poly), name


def test_q7_fails_fast_naming_its_bound():
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=r"63 linear forms has coefficient bound 2\^93\.2"):
            q_n(7)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # q_7's box would hold 39.1 million 8-byte slots
    assert elapsed < 0.5
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "n,h,slots",
    [(9, 2, 15**7), (17, 1, 3**15)],
)
def test_expand_forms_fails_fast_on_its_box(n, h, slots):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=rf"needs {slots} slots, more than the 8388608"):
            p_h(n, h)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1 << 20


def test_q_n_degree_check_fires_before_the_expansion(monkeypatch):
    reduced = symfunc._reduced_forms

    def one_form_short(n, h):
        forms = list(reduced(n, h))
        return forms[1:] if h == 1 else forms

    def expand(forms, n):
        raise AssertionError("expanded before the degree check")

    monkeypatch.setattr(symfunc, "_reduced_forms", one_form_short)
    monkeypatch.setattr(symfunc, "_expand_forms", expand)
    with pytest.raises(AssertionError, match=r"^q_n degree mismatch$"):
        q_n(5)


def test_q_n_is_freed_when_its_caller_drops_it():
    # q_6's 19930 terms take about 3 MB; nothing keeps them once the
    # caller lets go
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        q = q_n(6)
        held = tracemalloc.get_traced_memory()[0]
        del q
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held - before > 2 << 20
    assert after - before < 1 << 19


# ----------------------------------------------------------- leading exponents


def test_leading_exponent_errors_on_zero():
    with pytest.raises(ValueError):
        leading_exponent(Poly.zero("L"))


def test_leading_exponent_of_reduced_e2():
    for n in (3, 4, 5):
        lead = leading_exponent(bar_reduce(elementary(2, n), n))
        assert lead.as_tuple(n - 1, first_index=1) == (2,) + (0,) * (n - 2)


def test_leading_exponents_of_q():
    assert leading_exponent(q_n(3)).as_tuple(2, first_index=1) == (2, 1)
    assert leading_exponent(q_n(4)).as_tuple(3, first_index=1) == (4, 2, 1)
    assert leading_exponent(q_n(5)).as_tuple(4, first_index=1) == (8, 4, 2, 1)


@pytest.mark.slow
def test_leading_exponent_of_q6():
    q = q_n(6)
    assert q.total_degree() == 31
    assert leading_exponent(q).as_tuple(5, first_index=1) == (16, 8, 4, 2, 1)


def test_alpha_at_large_weight_has_bounded_stack_depth():
    # alpha(1, g) is built from every smaller weight; their number must not
    # set the recursion depth
    assert transition_alpha(1, 3000).entries == [[1]]


@pytest.mark.parametrize("n", range(3, 15))
def test_form_leads_count_the_reduced_forms(n):
    # the binomial count of each p_h's leading variables and -1 leads
    # equals a count over the forms themselves
    for h in range(1, n // 2 + 1):
        leads, negatives = Counter(), 0
        for form in symfunc._reduced_forms(n, h):
            j = min(form)
            leads[j] += 1
            negatives += form[j] == -1
        assert symfunc._form_leads(n, h) == (leads, negatives)


def test_q_n_leading_monomial_is_the_lemma_exponent():
    for n in range(3, 41):
        _, lead = q_n_leading_monomial(n)
        assert lead.as_tuple(n - 1, first_index=1) == tuple(2 ** i for i in range(n - 2, -1, -1))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_q_n_leading_monomial_matches_the_expansion(n):
    assert q_n_leading_monomial(n) == leading_monomial(q_n(n))


def test_q_n_leading_monomial_needs_three():
    with pytest.raises(ValueError):
        q_n_leading_monomial(2)


@pytest.mark.parametrize("n", range(2, 8))
def test_reduced_e_leading_monomial_matches_the_expansion(n):
    for i in range(2, n + 1):
        k = tuple(int(j == i) for j in range(1, n + 1))
        assert reduced_e_leading_monomial(i, n) == leading_monomial(bar_reduce(e_monomial(k, n), n))


@pytest.mark.parametrize("i,n", [(1, 3), (4, 3), (0, 2)])
def test_reduced_e_leading_monomial_range(i, n):
    with pytest.raises(ValueError):
        reduced_e_leading_monomial(i, n)


def test_leading_monomial_returns_coefficient():
    c, ev = leading_monomial(q_n(3))
    assert ev == ExponentVector({1: 2, 2: 1})
    assert c == -1


@given(
    st.integers(3, 5),
    st.lists(st.integers(0, 2), min_size=2, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_reduced_e_monomial_leading_exponent_formula(n, tail):
    # for k = (0, h2, ..., hn): leading exponent of the bar-reduced
    # e-monomial is (2*sum h_i, h3+...+hn, ..., hn)
    tail = (tail + [0, 0, 0])[: n - 1]
    if sum(tail) == 0 or sum(tail) > 4:
        return
    k = (0,) + tuple(tail)
    reduced = bar_reduce(e_monomial(k, n), n)
    expected = (2 * sum(tail),) + tuple(
        sum(tail[j:]) for j in range(1, len(tail))
    )
    assert leading_exponent(reduced).as_tuple(n - 1, first_index=1) == expected


@pytest.mark.parametrize("n,g", [(3, 6), (4, 7), (5, 8)])
def test_reduced_e_monomials_have_distinct_leading_exponents(n, g):
    leads = set()
    for k in e_indices(n, g):
        if k[0] != 0:
            continue
        reduced = bar_reduce(e_monomial(k, n), n)
        leads.add(leading_exponent(reduced))
    count = len([k for k in e_indices(n, g) if k[0] == 0])
    assert len(leads) == count


@st.composite
def l_polys(draw):
    nterms = draw(st.integers(1, 3))
    terms = []
    for _ in range(nterms):
        exps = draw(st.dictionaries(st.integers(1, 3), st.integers(1, 3), min_size=1, max_size=3))
        c = draw(st.integers(-5, 5).filter(bool))
        terms.append((ExponentVector(exps), c))
    return Poly("L", terms)


@given(l_polys(), l_polys())
@settings(max_examples=60, deadline=None)
def test_leading_exponent_additive_on_products(p, q):
    if p.is_zero() or q.is_zero():
        return
    lp = leading_exponent(p)
    lq = leading_exponent(q)
    assert leading_exponent(p * q) == lp * lq
