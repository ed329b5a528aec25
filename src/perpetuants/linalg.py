"""Exact linear algebra: fraction-free elimination on primitive sparse rows.

A matrix is a list of rows over an explicit column count, and a row is a
{column: entry} dict of its nonzero entries, the one form every row of the
package is built in.  Entries are ints or Fractions; a rational row is
scaled to integers first (row scaling preserves rank, row span and null
space).  One function, `_integer_rows`, holds these row rules, and every
rank, row rank profile and null space comes from one elimination loop on
the {column: int} dicts it returns.  Elimination is deterministic: the
pivot is always the first row with a nonzero entry in the current column,
so results are reproducible.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, compress
from math import gcd, lcm

# The byte order of memoryview.cast: each 64-bit digit of a packed int
# written in it reads back as its value.
_NATIVE = "little" if memoryview(b"\1" + bytes(7)).cast("Q")[0] == 1 else "big"


def _integer_rows(matrix, ncols, moved=None):
    """Each row of `matrix` as a {column: int} dict of its nonzero entries:
    zero entries dropped and a rational row scaled to integers.  With
    `moved`, a {column: new column} dict over every column, each row's
    columns are renumbered by it in the same pass.  Without it a row of
    nonzero ints is taken as it is, not copied.

    Raises ValueError for an entry outside columns [0, ncols).
    """
    rows = []
    for row in matrix:
        if 0 in row.values():
            row = {j: x for j, x in row.items() if x}
        if moved is not None:
            try:
                row = dict(zip(map(moved.__getitem__, row), row.values()))
            except KeyError:
                raise ValueError(f"row entry outside columns 0..{ncols - 1}") from None
        elif row and (min(row) < 0 or max(row) >= ncols):
            raise ValueError(f"row entry outside columns 0..{ncols - 1}")
        if not set(map(type, row.values())) <= {int}:
            den = lcm(*(x.denominator for x in row.values()))
            row = {j: int(x * den) for j, x in row.items()}
        rows.append(row)
    return rows


def _sparsest_first(rows, ncols):
    """`_integer_rows` of `rows` with the columns renumbered by their count
    of dict keys, fewest first.

    Only a row rank profile may be read off the result, since it alone
    does not depend on the column order.  Sparsest columns first: each
    free column of a null space basis holds a single nonzero, so its pivot
    updates only the rows that use that vector.
    """
    nonzeros = Counter(chain.from_iterable(rows))
    order = sorted(range(ncols), key=nonzeros.__getitem__)
    return _integer_rows(rows, ncols, {j: k for k, j in enumerate(order)})


def _echelon(sparse, ncols):
    """Fraction-free forward elimination of `_integer_rows` output, whose
    list it reuses.

    Returns (rows, pivot_cols, pivot_rows): the echelon rows as
    {column: int} dicts, one per pivot, the pivot column of each, and the
    index of the input row each came from.  A pivot row is moved up, not
    swapped, so the rows below it keep their input order; input row i is
    then in `pivot_rows` exactly when it is not in the span of rows
    0..i-1.

    A pivot p updates each row with an entry r in its column to
    (|p|/g) * row - (sign(p) * r/g) * pivot_row, with g = gcd(p, r),
    divided by the gcd of its entries; a row that no pivot touches is left
    as it is.  The row's multiplier stays positive, so a pivot of -1, the
    free-column entry of many kernel vectors, adds a multiple of the pivot
    row and rescales nothing.  The Bareiss row (Math. Comp. 22, 1968)
    spans the same line as each updated row, which is primitive, so no
    entry exceeds a minor of the input.  Rows are bucketed by leading
    column while they are not pivots, so a pivot updates only the rows
    that use its column.  An input dict is never changed: the first update
    of a row works on a copy, and later updates change that copy in place.
    """
    below = {}  # leading column -> input indices of rows not yet pivots
    for i, row in enumerate(sparse):
        if row:
            below.setdefault(min(row), []).append(i)
    owned = set()  # input indices whose dict is this function's own copy
    pivot_cols = []
    pivot_rows = []
    for c in range(ncols):
        if not below:
            break
        bucket = below.pop(c, None)
        if bucket is None:
            continue
        pivot = min(bucket)
        pivot_row = sparse[pivot]
        p = pivot_row[c]
        for i in bucket:
            if i == pivot:
                continue
            row = sparse[i]
            r = row[c]
            g = gcd(p, r)
            a, b = abs(p) // g, (r if p > 0 else -r) // g
            if a != 1:
                row = {j: a * x for j, x in row.items()}
            elif i not in owned:
                row = row.copy()
            owned.add(i)
            # a * r - b * p = 0 deletes column c with the other new zeros
            for j, y in pivot_row.items():
                x = row.get(j, 0) - b * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            if row:
                content = gcd(*row.values())
                if content > 1:
                    for j in row:
                        row[j] //= content
                below.setdefault(min(row), []).append(i)
            sparse[i] = row
        pivot_cols.append(c)
        pivot_rows.append(pivot)
    # every row that is not a pivot row has been reduced to zero
    return [sparse[i] for i in pivot_rows], pivot_cols, pivot_rows


def rank(matrix, ncols):
    """Exact rank of `matrix` over `ncols` columns (see the module docstring)."""
    return len(_echelon(_integer_rows(matrix, ncols), ncols)[1])


def row_ranks(*groups, ncols):
    """Ranks of the spans of groups[0], groups[0] + groups[1], and so on,
    from one elimination of the rows of all groups over `ncols` columns."""
    tags = [k for k, group in enumerate(groups) for _ in group]
    rows = _sparsest_first([row for group in groups for row in group], ncols)
    counts = [0] * len(groups)
    for i in _echelon(rows, ncols)[2]:
        counts[tags[i]] += 1
    return list(accumulate(counts))


def union_ranks(a, b, *, ncols):
    """(rank of a, rank of b, rank of a + b) for two lists of rows over
    `ncols` columns.

    The rows of both are validated and renumbered once.  b is eliminated
    alone on a shallow copy of the row list, which leaves its dicts as
    they are, and then a followed by b on the list itself.
    """
    rows = _sparsest_first([*a, *b], ncols)
    rank_b = len(_echelon(rows[len(a) :], ncols)[1])
    pivot_rows = _echelon(rows, ncols)[2]
    return sum(i < len(a) for i in pivot_rows), rank_b, len(pivot_rows)


def nullspace(matrix, ncols):
    """Primitive integer basis of {x : M x = 0}, one {column: entry} vector
    per free column, in the order of the free columns.

    The vector of free column f is 0 at every other free column; with
    that fixed it is unique up to scale.  It is divided by its content and
    signed so that its first nonzero entry is positive.

    All the vectors are solved in one sweep up the echelon rows, on packed
    ints: column j is one int whose slot i, of w bits, holds column j's
    entry in vector i, and free column i starts as 2^(i*w).  The row with
    pivot p at column c sets column c to -(the sum of its other entries
    times their columns).  That solves p times the vectors, so p
    multiplies a running scale instead of dividing: a column solved at an
    earlier scale is brought up to the current one where a row reads it,
    and to the final one when it is unpacked.  w is a whole number of
    64-bit words, sized from an exact bound on every entry at the final
    scale, which is summed over the same rows before the packed sweep.
    An unpacked entry past that bound raises AssertionError, naming the
    free column of its vector and its column.
    """
    rows, pivot_cols, _ = _echelon(_integer_rows(matrix, ncols), ncols)
    free = sorted(set(range(ncols)).difference(pivot_cols))
    if not free:
        return []
    # scale_of[j]: the running scale at which column j was solved, and
    # bound[j] a bound on its entries there; sweep: (c, columns, entries)
    # of each row right of its pivot, each entry brought from scale_of[j]
    # to the scale of c
    scale = 1
    scale_of = dict.fromkeys(free, 1)
    bound = dict.fromkeys(free, 1)
    sweep = []
    for row, c in zip(reversed(rows), reversed(pivot_cols)):
        cols = [j for j in row if j != c]
        entries = [row[j] * (scale // scale_of[j]) for j in cols]
        scale *= row[c]
        scale_of[c] = scale
        bound[c] = sum(map(int.__mul__, map(abs, entries), map(bound.__getitem__, cols)))
        sweep.append((c, cols, entries))
    limit = max(b * abs(scale // scale_of[j]) for j, b in bound.items())
    words = (limit.bit_length() + 64) // 64  # sign bit included
    width = 64 * words
    packed = {f: 1 << (width * i) for i, f in enumerate(free)}
    for c, cols, entries in sweep:
        packed[c] = -sum(map(int.__mul__, entries, map(packed.__getitem__, cols)))
    # The nonzero columns at the final scale, one after the other in
    # native byte order.  Adding 2^(w-1) to every slot makes each one
    # nonnegative without a carry; the XOR takes it off again as the
    # slot's two's complement: its top 64-bit digit read signed, the ones
    # below it unsigned.
    cols = [j for j in range(ncols) if packed[j]]
    stride = words * len(free)
    offset = int.from_bytes((1 << (width - 1)).to_bytes(8 * words, "little") * len(free), "little")
    view = memoryview(b"".join(
        ((packed[j] * (scale // scale_of[j]) + offset) ^ offset).to_bytes(8 * stride, _NATIVE)
        for j in cols
    ))
    signed, unsigned = view.cast("q"), view.cast("Q")

    def digit(i, t):
        """The position of 64-bit digit t of slot i in the first column;
        the same slot of column cols[m] is m * stride further on."""
        return i * words + t if _NATIVE == "little" else stride - 1 - i * words - t

    basis = []
    for i, f in enumerate(free):
        entries = signed[digit(i, words - 1) :: stride].tolist()
        for t in range(words - 2, -1, -1):
            entries = [x << 64 | d for x, d in zip(entries, unsigned[digit(i, t) :: stride])]
        if max(entries) > limit or -min(entries) > limit:
            j, x = next((j, x) for j, x in zip(cols, entries) if abs(x) > limit)
            raise AssertionError(
                f"null space vector of free column {f}: entry {x} at column {j} "
                f"is past the bound {limit} that sized its slot"
            )
        g = gcd(*entries)
        if next(filter(None, entries)) < 0:
            g = -g
        basis.append(dict(zip(compress(cols, entries), map(g.__rfloordiv__, filter(None, entries)))))
    return basis
