"""Fraction-free elimination: rank, row rank profile and nullspace."""

import struct
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from linalg_reference import matmul

from perpetuants import linalg


def _sparse(matrix):
    """A list-of-lists matrix as `linalg` takes it: its rows as
    {column: entry} dicts of their nonzero entries, and its row length."""
    ncols = len(matrix[0]) if matrix else 0
    assert all(len(row) == ncols for row in matrix)
    return [{j: x for j, x in enumerate(row) if x} for row in matrix], ncols


def _echelon(matrix):
    """`linalg`'s elimination of a list-of-lists matrix: (rows, pivot_cols,
    pivot_rows), the rows as {column: int} dicts, one per pivot."""
    rows, ncols = _sparse(matrix)
    return linalg._echelon(linalg._integer_rows(rows, ncols), ncols)


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
    gives each row below it.  Returns (rows, pivot_cols, pivot_rows), the
    rows as lists, zero rows included."""
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
    p, r = pivot_row[c], row[c]
    g = gcd(p, r)
    a, b = abs(p) // g, (r if p > 0 else -r) // g
    row = [a * x - b * y for x, y in zip(row, pivot_row)]
    content = gcd(*row)
    return [x // content for x in row] if content else row


def dense_bareiss_echelon(matrix):
    """Bareiss' loop (Math. Comp. 22, 1968): every pivot updates every row
    below it, and each entry stays a minor of the input."""
    return _dense_echelon(matrix, _bareiss_update)


def dense_primitive_echelon(matrix):
    """The dense form of the elimination loop in `linalg`: each row below
    the pivot with a nonzero entry in its column becomes (|p|/g) * row -
    (sign(p) * r/g) * pivot_row, g = gcd(p, r), divided by its content."""
    return _dense_echelon(matrix, _primitive_update)


def dense_nullspace(matrix):
    """The null space basis one free column at a time: 1 at that column, 0
    at the other free ones, and the pivot columns solved from the last
    echelon row of the dense loop up in Fractions; then cleared of
    denominators, divided by its content and signed so that its first
    nonzero entry is positive."""
    rows, pivot_cols, _ = dense_primitive_echelon(matrix)
    ncols = len(matrix[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_cols):
        x = [Fraction(int(c == f)) for c in range(ncols)]
        for row, c in reversed(list(zip(rows, pivot_cols))):
            x[c] = -sum(row[j] * x[j] for j in range(c + 1, ncols)) / Fraction(row[c])
        den = lcm(*(v.denominator for v in x))
        ints = [int(v * den) for v in x]
        content = gcd(*ints)
        if next(v for v in ints if v) < 0:
            content = -content
        basis.append({j: v // content for j, v in enumerate(ints) if v})
    return basis


def test_rank_examples():
    assert linalg.rank(*_sparse([[1, 2], [2, 4]])) == 1
    assert linalg.rank(*_sparse([[1, 0], [0, 1]])) == 2
    assert linalg.rank(*_sparse([[0, 0], [0, 0]])) == 0
    assert linalg.rank([], 0) == 0


def test_rank_with_fractions():
    assert linalg.rank(*_sparse([[Fraction(1, 2), 1], [1, 2]])) == 1
    assert linalg.rank([{0: Fraction(1, 2), 1: 1}, {0: 1, 1: 2}], ncols=2) == 1


def test_sparse_rows_give_the_rank_of_their_dense_matrix():
    m = [[0, 3, 0, 0, 1], [0, 0, 0, 0, 0], [0, 6, 0, 0, 2], [5, 0, 0, 1, 0]]
    sparse = [{1: 3, 4: 1}, {}, {4: 2, 1: 6}, {0: 5, 3: 1}]
    assert linalg.rank(sparse, ncols=5) == len(dense_primitive_echelon(m)[1]) == 2
    # explicit zero entries are the same as absent ones
    assert linalg.rank([{0: 0, 2: 1}, {2: 0}], ncols=3) == 1


@pytest.mark.parametrize(
    "call",
    [
        # an entry outside columns 0..ncols-1
        lambda: linalg.rank([{3: 1}], ncols=3),
        lambda: linalg.nullspace([{0: 1}, {-1: 2}], ncols=2),
    ],
    ids=["rank-column-beyond", "nullspace-negative-column"],
)
def test_malformed_matrices_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_nullspace_simple():
    # x + 2y = 0: primitive vector with first nonzero entry positive
    vecs = linalg.nullspace(*_sparse([[1, 2]]))
    assert vecs == [{0: 2, 1: -1}]
    assert linalg.nullspace([{1: 2, 0: 1}], ncols=2) == vecs


def test_nullspace_scales_where_a_pivot_does_not_divide():
    # 2x + 3y = 0 and a 2 x 3 system whose first pivot 4 does not divide
    # the sum of its row
    assert linalg.nullspace(*_sparse([[2, 3]])) == [{0: 3, 1: -2}]
    assert linalg.nullspace(*_sparse([[4, 6, 9], [2, 0, 3]])) == [{0: 3, 1: 1, 2: -2}]


def test_nullspace_full_rank_is_empty():
    assert linalg.nullspace(*_sparse([[1, 0], [0, 1]])) == []


def test_nullspace_empty_matrix_gives_identity():
    vecs = linalg.nullspace([], ncols=3)
    assert vecs == [{0: 1}, {1: 1}, {2: 1}]
    # a zero row leaves every column free as well
    assert linalg.nullspace([{}], ncols=3) == vecs


def test_nullspace_vectors_are_primitive_kernel_elements():
    m = [[2, 4, 6], [1, 2, 3]]
    vecs = linalg.nullspace(*_sparse(m))
    assert len(vecs) == 2
    for v in vecs:
        for row in m:
            assert sum(row[j] * x for j, x in v.items()) == 0
        assert gcd(*v.values()) == 1


def test_nullspace_entries_past_one_word():
    # a slot of two and of three 64-bit words, with a pivot of 3 that
    # does not divide its row's sum
    assert linalg.nullspace([{0: 1, 1: -(2**70)}], ncols=2) == [{0: 2**70, 1: 1}]
    m = [[3, 2**100, 0, 5], [0, 7, 2**65, 1]]
    vecs = linalg.nullspace(*_sparse(m))
    assert vecs == dense_nullspace(m)
    assert max(abs(x) for v in vecs for x in v.values()) > 2**128


class _BigEndianView:
    """A memoryview of bytes as a big-endian machine casts them."""

    def __init__(self, data):
        self.data = bytes(data)

    def cast(self, code):
        return _Digits(struct.unpack(f">{len(self.data) // 8}{code}", self.data))


class _Digits(list):
    def __getitem__(self, key):
        got = list.__getitem__(self, key)
        return _Digits(got) if isinstance(key, slice) else got

    def tolist(self):
        return list(self)


WIDE = [
    [[1, 2]],
    [[4, 6, 9], [2, 0, 3]],
    [[1, -(2**70)]],
    [[3, 2**100, 0, 5], [0, 7, 2**65, 1]],
    [[2**64, 3, 0, 1], [0, 5, 2**70, -1]],
]


def test_nullspace_reads_big_endian_digits(monkeypatch):
    expected = [linalg.nullspace(*_sparse(m)) for m in WIDE]
    monkeypatch.setattr(linalg, "_NATIVE", "big")
    monkeypatch.setattr(linalg, "memoryview", _BigEndianView, raising=False)
    assert [linalg.nullspace(*_sparse(m)) for m in WIDE] == expected


def test_nullspace_entry_past_its_bound_raises(monkeypatch):
    # digits written in one byte order and read in the other send an
    # entry past the bound its slot was sized from; the error names the
    # free column of its vector and the column of the entry
    monkeypatch.setattr(linalg, "_NATIVE", "little" if linalg._NATIVE == "big" else "big")
    with pytest.raises(AssertionError, match="free column 1: entry .* at column 0 "):
        linalg.nullspace([{0: 1, 1: 2}], ncols=2)


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
    # always invertible
    n = draw(st.integers(1, 4))
    entry = st.integers(-4, 4)
    lo = [[1 if i == j else (draw(entry) if i > j else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (draw(entry) if i < j else 0) for j in range(n)] for i in range(n)]
    return matmul(lo, up)


@given(unimodular())
@settings(max_examples=40, deadline=None)
def test_rank_of_invertible_is_full(m):
    assert linalg.rank(*_sparse(m)) == len(m)
    # duplicating rows never raises the rank
    assert linalg.rank(*_sparse(m + m)) == len(m)


def test_row_rank_profile_keeps_input_order():
    # swapping rows 0 and 2 for the first pivot would report rows {1, 2}
    assert sorted(_echelon([[0, 1], [0, 1], [1, 0]])[2]) == [0, 2]
    assert linalg.row_ranks([{1: 1}], [{1: 1}], [{0: 1}], ncols=2) == [1, 1, 2]


def test_union_ranks_examples():
    assert linalg.union_ranks([{0: 1}], [{0: 2}, {1: 1}], ncols=2) == (1, 2, 2)
    assert linalg.union_ranks([{0: 1, 1: 0}, {}], [{0: Fraction(1, 2)}], ncols=2) == (1, 1, 1)
    assert linalg.union_ranks([], [], ncols=0) == (0, 0, 0)


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
    rows, ncols = _sparse(m)
    _, pivot_cols, pivot_rows = _echelon(m)
    assert sorted(pivot_rows) == [
        i
        for i in range(len(m))
        if linalg.rank(rows[: i + 1], ncols) > linalg.rank(rows[:i], ncols)
    ]
    vecs = linalg.nullspace(rows, ncols)
    assert len(vecs) == ncols - linalg.rank(rows, ncols)
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
    assert _echelon(m) == (_sparse(m)[0], [0, 1, 2, 3], [0, 1, 2, 3])
    assert dense_primitive_echelon(m) == (m, [0, 1, 2, 3], [0, 1, 2, 3])


def test_minus_one_pivot_adds_its_row_without_rescaling():
    # p = -1, r = 4: the row becomes row + 4 * pivot_row = (0, 9, 12),
    # divided by its content; its multiplier stays 1, not -1
    m = [[-1, 2, 3], [4, 1, 0]]
    assert _echelon(m) == ([{0: -1, 1: 2, 2: 3}, {1: 3, 2: 4}], [0, 1], [0, 1])
    assert dense_primitive_echelon(m) == ([[-1, 2, 3], [0, 3, 4]], [0, 1], [0, 1])
    # p = -2, r = 3: 2 * row + 3 * pivot_row = (0, 5, 4)
    assert _echelon([[-2, 1, 0], [3, 1, 2]])[0] == [{0: -2, 1: 1}, {1: 5, 2: 4}]


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
    echelon, pivot_cols, pivot_rows = _echelon(m)
    rows, dense_cols, dense_rows = dense_primitive_echelon(m)
    assert (pivot_cols, pivot_rows) == (dense_cols, dense_rows)
    assert echelon == _sparse(rows[: len(pivot_rows)])[0]
    assert not any(map(any, rows[len(pivot_rows) :]))
    assert all(type(x) is int for row in echelon for x in row.values())
    assert linalg.rank(*_sparse(m)) == len(pivot_rows)
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
    assert set(_echelon(permuted)[2]) == set(_echelon(m)[2])


@st.composite
def wide_matrices(draw):
    # non-unit pivots, entries past 64 bits, zero rows and combinations of
    # earlier rows, so that there are free columns to solve
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(
        st.just(0),
        st.integers(-9, 9),
        st.integers(2**60, 2**90),
        st.integers(-(2**90), -(2**60)),
    )
    m = []
    for _ in range(draw(st.integers(1, 5))):
        if m and draw(st.booleans()):
            a, b = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            x, y = draw(st.integers(-5, 5)), draw(entry)
            row = [x * u + y * v for u, v in zip(a, b)]
        else:
            row = [draw(entry) for _ in range(ncols)]
        m.append(row)
    return m


@given(wide_matrices())
@example([[2**64, 3, 0], [0, 5, 2**70]])
@example([[3, -(2**63), 1], [6, 0, 7]])
@settings(max_examples=300, deadline=None)
def test_nullspace_equals_dense_back_substitution(m):
    vecs = linalg.nullspace(*_sparse(m))
    assert vecs == dense_nullspace(m)
    for v in vecs:
        for row in m:
            assert sum(row[j] * x for j, x in v.items()) == 0
        assert gcd(*v.values()) == 1
        assert v[min(v)] > 0


def _snapshot(rows):
    return [(id(row), list(row.items())) for row in rows]


@given(sparse_matrices())
@settings(max_examples=200, deadline=None)
def test_callers_rows_are_left_unchanged(m):
    rows, ncols = _sparse(m)
    rows = rows + rows[:2]  # the same dicts twice
    before = _snapshot(rows)
    linalg.rank(rows, ncols)
    linalg.nullspace(rows, ncols)
    linalg.row_ranks(rows[:3], rows[1:], ncols=ncols)
    linalg.union_ranks(rows[:3], rows[1:], ncols=ncols)
    assert _snapshot(rows) == before


def test_a_dict_held_twice_is_left_unchanged():
    row = {0: 2, 1: 3, 2: 1}
    other = {0: 1, 1: 1}
    matrix = [row, other, row]
    assert linalg.rank(matrix, 3) == 2
    assert linalg.nullspace(matrix, 3) == [{0: 1, 1: -1, 2: 1}]
    assert linalg.row_ranks([row, other], [row], ncols=3) == [2, 2]
    assert linalg.union_ranks([row], [other, row], ncols=3) == (1, 2, 2)
    assert matrix == [row, other, row] and matrix[0] is matrix[2]
    assert row == {0: 2, 1: 3, 2: 1} and other == {0: 1, 1: 1}
