"""Exact linear algebra: fraction-free elimination on primitive sparse rows.

A matrix is a list of rows over an explicit column count, and a row is a
{column: entry} dict of its nonzero entries, the one form every row of the
package is built in.  Entries are ints or Fractions; a rational row is
scaled to integers first (row scaling preserves rank, row span and null
space).  Every rank, row rank profile and null space comes from one
elimination loop on {column: int} dicts.  Elimination is deterministic:
the pivot is always the first row with a nonzero entry in the current
column, so results are reproducible.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
from math import gcd, lcm


def _integer_rows(matrix, ncols):
    """Each row of `matrix` as a {column: int} dict of its nonzero entries.
    A row of nonzero ints is taken as it is, not copied.

    Raises ValueError for an entry outside columns [0, ncols).
    """
    rows = []
    for row in matrix:
        if 0 in row.values():
            row = {j: x for j, x in row.items() if x}
        if row and (min(row) < 0 or max(row) >= ncols):
            raise ValueError(f"row entry outside columns 0..{ncols - 1}")
        if not set(map(type, row.values())) <= {int}:
            den = lcm(*(x.denominator for x in row.values()))
            row = {j: int(x * den) for j, x in row.items()}
        rows.append(row)
    return rows


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
    (p/g) * row - (r/g) * pivot_row, with g = gcd(p, r), divided by the gcd
    of its entries; a row that no pivot touches is left as it is.  The
    Bareiss row (Math. Comp. 22, 1968) spans the same line as each updated
    row, which is primitive, so no entry exceeds a minor of the input.
    Rows are bucketed by leading column while they are not pivots, so a
    pivot updates only the rows that use its column.
    """
    below = {}  # leading column -> input indices of rows not yet pivots
    for i, row in enumerate(sparse):
        if row:
            below.setdefault(min(row), []).append(i)
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
            g = gcd(p, row[c])
            a, b = p // g, row[c] // g
            row = row.copy() if a == 1 else {j: a * x for j, x in row.items()}
            for j, y in pivot_row.items():
                row[j] = row.get(j, 0) - b * y
            del row[c]  # a * r - b * p = 0
            if 0 in row.values():
                row = {j: x for j, x in row.items() if x}
            if row:
                content = gcd(*row.values())
                if content > 1:
                    row = {j: x // content for j, x in row.items()}
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
    rows = _integer_rows([row for group in groups for row in group], ncols)
    # The row rank profile does not depend on the column order.  Sparsest
    # columns first: each free column of a null space basis holds a single
    # nonzero, so its pivot updates only the rows that use that vector.
    nonzeros = Counter(chain.from_iterable(rows))
    order = sorted(range(ncols), key=nonzeros.__getitem__)
    moved = {j: k for k, j in enumerate(order)}.__getitem__
    rows = [dict(zip(map(moved, row), row.values())) for row in rows]
    counts = [0] * len(groups)
    for i in _echelon(rows, ncols)[2]:
        counts[tags[i]] += 1
    return list(accumulate(counts))


def nullspace(matrix, ncols):
    """Primitive integer basis of {x : M x = 0}, one {column: entry} vector
    per free column, in the order of the free columns.

    Each vector starts as 1 at its free column and 0 on the others, and is
    solved from the last pivot row up over that row's nonzero entries.
    Where a pivot p does not divide the row's sum s, the vector is first
    scaled by p / gcd(s, p), so each division is exact.  The vector is then
    divided by its content and signed so that its first nonzero entry is
    positive: with one free entry fixed, it is unique up to scale.
    """
    rows, pivot_cols, _ = _echelon(_integer_rows(matrix, ncols), ncols)
    pivots = set(pivot_cols)
    # tails[r]: the entries of pivot row r right of its pivot; users[j]: the
    # pivot rows with such an entry in column j
    tails = []
    users = {}
    for r, (row, c) in enumerate(zip(rows, pivot_cols)):
        tail = [(j, x) for j, x in row.items() if j != c]
        for j, _ in tail:
            users.setdefault(j, []).append(r)
        tails.append(tail)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        sol = {f: 1}
        # A row with no entry in a column of sol sums to 0 and changes
        # nothing, so only the users of sol's columns are visited.  The
        # users of pivot column c lie above c's row, so the largest index
        # popped first visits them bottom-up, as the full sweep would.
        seen = set(users.get(f, ()))
        todo = [-r for r in seen]
        heapify(todo)
        while todo:
            r = -heappop(todo)
            c = pivot_cols[r]
            p = rows[r][c]
            s = sum(x * sol[j] for j, x in tails[r] if j in sol)
            if s % p:
                scale = p // gcd(s, p)
                sol = {j: x * scale for j, x in sol.items()}
                s *= scale
            q, rem = divmod(-s, p)
            if rem:
                raise AssertionError(f"inexact division in null space column {f}")
            if q:
                sol[c] = q
                for above in users.get(c, ()):
                    if above not in seen:
                        seen.add(above)
                        heappush(todo, -above)
        g = gcd(*sol.values())
        if sol[min(sol)] < 0:
            g = -g
        basis.append({j: x // g for j, x in sol.items()})
    return basis
