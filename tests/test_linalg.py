"""Fraction-free elimination: rank, nullspace and exact inversion."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from linalg_reference import invert, matmul

from perpetuants import linalg


def _dense_integer_rows(matrix):
    rows = []
    for row in matrix:
        den = 1
        for x in row:
            if isinstance(x, Fraction) and x.denominator != 1:
                den = lcm(den, x.denominator)
        rows.append([int(x * den) for x in row])
    return rows


def _dense_echelon(matrix, update):
    """The dense elimination loop: the first row with a nonzero entry in a
    column is moved up as its pivot, and `update(pivot_row, row, c, prev)`
    gives each row below it.  Returns `bareiss_echelon`'s triple."""
    rows = _dense_integer_rows(matrix)
    if not rows:
        return [], [], []
    ncols = len(rows[0])
    nrows = len(rows)
    order = list(range(nrows))
    prev = 1
    pivot_cols = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            rows.insert(r, rows.pop(pivot))
            order.insert(r, order.pop(pivot))
        for i in range(r + 1, nrows):
            rows[i] = update(rows[r], rows[i], c, prev)
        prev = rows[r][c]
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols, order[:r]


def _bareiss_update(pivot_row, row, c, prev):
    p, ric = pivot_row[c], row[c]
    return [(p * x - ric * y) // prev for x, y in zip(row, pivot_row)]


def _primitive_update(pivot_row, row, c, prev):
    if not row[c]:
        return row
    g = gcd(pivot_row[c], row[c])
    a, b = pivot_row[c] // g, row[c] // g
    row = [a * x - b * y for x, y in zip(row, pivot_row)]
    content = gcd(*row)
    return [x // content for x in row] if content else row


def dense_bareiss_echelon(matrix):
    """Bareiss' loop (Math. Comp. 22, 1968): every pivot updates every row
    below it, and each entry stays a minor of the input."""
    return _dense_echelon(matrix, _bareiss_update)


def dense_primitive_echelon(matrix):
    """The dense form of the elimination loop in `linalg`: each row below
    the pivot with a nonzero entry in its column becomes (p/g) * row -
    (r/g) * pivot_row, g = gcd(p, r), divided by its content."""
    return _dense_echelon(matrix, _primitive_update)


def test_rank_examples():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([]) == 0


def test_rank_with_fractions():
    assert linalg.rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert linalg.rank([{0: Fraction(1, 2), 1: 1}, {0: 1, 1: 2}], ncols=2) == 1


def test_sparse_rows_give_the_rank_of_their_dense_matrix():
    m = [[0, 3, 0, 0, 1], [0, 0, 0, 0, 0], [0, 6, 0, 0, 2], [5, 0, 0, 1, 0]]
    sparse = [{1: 3, 4: 1}, {}, {4: 2, 1: 6}, {0: 5, 3: 1}]
    assert linalg.rank(sparse, ncols=5) == linalg.rank(m) == 2
    # explicit zero entries are the same as absent ones
    assert linalg.rank([{0: 0, 2: 1}, {2: 0}], ncols=3) == 1


@pytest.mark.parametrize(
    "call",
    [
        # rows of unequal length: the short row is not padded
        lambda: linalg.rank([[0], [0, 1]]),
        lambda: linalg.nullspace([[0, 0], [0, 0, 1]]),
        lambda: linalg.bareiss_echelon([[1, 2], [3]]),
        # an explicit column count that disagrees with the rows
        lambda: linalg.nullspace([[1, 0]], ncols=5),
        lambda: linalg.rank([[1, 0]], ncols=1),
        # a sparse entry outside columns 0..ncols-1
        lambda: linalg.rank([{3: 1}], ncols=3),
        lambda: linalg.nullspace([{0: 1}, {-1: 2}], ncols=2),
        # sparse rows without a column count
        lambda: linalg.rank([{0: 1}]),
    ],
    ids=[
        "rank-ragged",
        "nullspace-ragged",
        "echelon-ragged",
        "nullspace-ncols",
        "rank-ncols",
        "rank-column-beyond",
        "nullspace-negative-column",
        "rank-no-ncols",
    ],
)
def test_malformed_matrices_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_nullspace_simple():
    # x + 2y = 0: primitive vector with first nonzero entry positive
    vecs = linalg.nullspace([[1, 2]])
    assert vecs == [{0: 2, 1: -1}]
    assert linalg.nullspace([{1: 2, 0: 1}], ncols=2) == vecs


def test_nullspace_scales_where_a_pivot_does_not_divide():
    # 2x + 3y = 0 and a 2 x 3 system whose first pivot 4 does not divide
    # the sum of its row
    assert linalg.nullspace([[2, 3]]) == [{0: 3, 1: -2}]
    assert linalg.nullspace([[4, 6, 9], [2, 0, 3]]) == [{0: 3, 1: 1, 2: -2}]


def test_nullspace_full_rank_is_empty():
    assert linalg.nullspace([[1, 0], [0, 1]]) == []


def test_nullspace_empty_matrix_gives_identity():
    vecs = linalg.nullspace([], ncols=3)
    assert vecs == [{0: 1}, {1: 1}, {2: 1}]
    # a zero row leaves every column free as well
    assert linalg.nullspace([{}], ncols=3) == vecs


def test_nullspace_vectors_are_primitive_kernel_elements():
    m = [[2, 4, 6], [1, 2, 3]]
    vecs = linalg.nullspace(m)
    assert len(vecs) == 2
    for v in vecs:
        for row in m:
            assert sum(row[j] * x for j, x in v.items()) == 0
        assert gcd(*v.values()) == 1


def test_invert_known_matrix():
    inv = invert([[1, 0, 0], [3, 1, 0], [6, 3, 1]])
    assert inv == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(-3), Fraction(1), Fraction(0)],
        [Fraction(3), Fraction(-3), Fraction(1)],
    ]


def test_invert_two_by_two():
    inv = invert([[1, 0], [2, 1]])
    assert inv == [[Fraction(1), Fraction(0)], [Fraction(-2), Fraction(1)]]


def test_matmul():
    m = [[1, 2], [3, 4]]
    ident = [[1, 0], [0, 1]]
    assert matmul(m, ident) == [
        [Fraction(1), Fraction(2)],
        [Fraction(3), Fraction(4)],
    ]


@st.composite
def unimodular(draw):
    # product of a lower and an upper unitriangular integer matrix:
    # always invertible with integer inverse
    n = draw(st.integers(1, 4))
    entry = st.integers(-4, 4)
    lo = [[1 if i == j else (draw(entry) if i > j else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (draw(entry) if i < j else 0) for j in range(n)] for i in range(n)]
    return matmul(lo, up)


@given(unimodular())
@settings(max_examples=40, deadline=None)
def test_invert_times_original_is_identity(m):
    n = len(m)
    inv = invert(m)
    prod = matmul(inv, m)
    ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    assert prod == ident


@given(unimodular())
@settings(max_examples=40, deadline=None)
def test_rank_of_invertible_is_full(m):
    assert linalg.rank(m) == len(m)
    # duplicating rows never raises the rank
    assert linalg.rank(m + m) == len(m)


def test_row_rank_profile_keeps_input_order():
    # swapping rows 0 and 2 for the first pivot would report rows {1, 2}
    assert sorted(linalg.bareiss_echelon([[0, 1], [0, 1], [1, 0]])[2]) == [0, 2]


@st.composite
def profile_matrices(draw):
    # zero rows, integer combinations of earlier rows and some rational rows
    ncols = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    m = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero":
            row = [0] * ncols
        elif kind == "combination" and m:
            a, b = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            x, y = draw(entry), draw(entry)
            row = [x * u + y * v for u, v in zip(a, b)]
        else:
            row = [draw(entry) for _ in range(ncols)]
        if draw(st.booleans()) and draw(st.booleans()):
            den = draw(st.integers(2, 4))
            row = [Fraction(v, den) for v in row]
        m.append(row)
    return m


@given(profile_matrices())
@settings(max_examples=200, deadline=None)
def test_echelon_profile_and_integer_nullspace(m):
    ncols = len(m[0])
    _, pivot_cols, pivot_rows = linalg.bareiss_echelon(m)
    assert sorted(pivot_rows) == [
        i for i in range(len(m)) if linalg.rank(m[: i + 1]) > linalg.rank(m[:i])
    ]
    vecs = linalg.nullspace(m)
    assert len(vecs) == ncols - linalg.rank(m)
    free = [c for c in range(ncols) if c not in pivot_cols]
    for f, v in zip(free, vecs):
        assert all(x for x in v.values())
        for row in m:
            assert sum(row[j] * x for j, x in v.items()) == 0
        assert gcd(*v.values()) == 1
        assert v[min(v)] > 0
        assert [c in v for c in free] == [c == f for c in free]


def test_primitive_echelon_rows_come_back_unchanged():
    # each row is zero in every earlier pivot column, so no pivot touches
    # it: the rows are already echelon and primitive
    m = [[2, 1, 0, 0], [0, 3, 1, 0], [0, 0, 5, 1], [0, 0, 0, 7]]
    assert linalg.bareiss_echelon(m) == (m, [0, 1, 2, 3], [0, 1, 2, 3])
    assert dense_primitive_echelon(m) == (m, [0, 1, 2, 3], [0, 1, 2, 3])


@st.composite
def sparse_matrices(draw):
    # mostly-zero rows that lead late (untouched by several pivots), dense
    # rows, zero rows, combinations of earlier rows, a zero column and
    # some rational rows
    ncols = draw(st.integers(1, 7))
    zero_col = draw(st.one_of(st.none(), st.integers(0, ncols - 1)))
    entry = st.integers(-3, 3)
    m = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["sparse", "late", "dense", "zero", "combination"]))
        if kind == "zero":
            row = [0] * ncols
        elif kind == "combination" and m:
            a, b = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            x, y = draw(entry), draw(entry)
            row = [x * u + y * v for u, v in zip(a, b)]
        elif kind == "dense":
            row = [draw(entry) for _ in range(ncols)]
        else:
            lead = draw(st.integers(0, ncols - 1)) if kind == "late" else 0
            row = [0 if j < lead or draw(st.integers(0, 2)) else draw(entry) for j in range(ncols)]
        if zero_col is not None:
            row[zero_col] = 0
        if draw(st.integers(0, 3)) == 0:
            den = draw(st.integers(2, 4))
            row = [Fraction(v, den) for v in row]
        m.append(row)
    return m


@given(sparse_matrices())
@settings(max_examples=300, deadline=None)
def test_sparse_echelon_equals_dense_loop(m):
    rows, pivot_cols, pivot_rows = linalg.bareiss_echelon(m)
    assert (rows, pivot_cols, pivot_rows) == dense_primitive_echelon(m)
    assert all(type(x) is int for row in rows for x in row)
    # the same matrix as {column: entry} rows of its nonzero entries
    ncols = len(m[0])
    sparse = [{j: x for j, x in enumerate(row) if x} for row in m]
    echelon, sparse_cols, sparse_rows = linalg._echelon(*linalg._integer_rows(sparse, ncols))
    assert (sparse_cols, sparse_rows) == (pivot_cols, pivot_rows)
    assert echelon == [{j: x for j, x in enumerate(row) if x} for row in rows[: len(pivot_rows)]]
    assert linalg.rank(sparse, ncols) == len(pivot_rows)
    assert linalg.nullspace(sparse, ncols) == linalg.nullspace(m)
    bareiss, bareiss_cols, bareiss_rows = dense_bareiss_echelon(m)
    assert (pivot_cols, pivot_rows) == (bareiss_cols, bareiss_rows)
    for row, minors in zip(rows, bareiss[: len(pivot_rows)]):
        # the Bareiss row spans the same line and is a multiple of the
        # primitive row, so no entry here exceeds a minor of the input
        lead = next(x for x in row if x)
        minor_lead = next(x for x in minors if x)
        assert [x * minor_lead for x in row] == [y * lead for y in minors]
        assert minor_lead * gcd(*row) % lead == 0
        assert all(abs(x) <= abs(y) for x, y in zip(row, minors))


@given(sparse_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_row_rank_profile_ignores_column_order(m, rnd):
    order = list(range(len(m[0])))
    rnd.shuffle(order)
    permuted = [[row[j] for j in order] for row in m]
    assert set(linalg.bareiss_echelon(permuted)[2]) == set(linalg.bareiss_echelon(m)[2])
