"""Exact linear algebra: fraction-free elimination on primitive rows.

Matrices are lists of lists of ints or Fractions.  Rational input rows are
scaled to integers first (row scaling preserves rank, row span and null
space).  Elimination is deterministic: the pivot is always the first row
with a nonzero entry in the current column, so results are reproducible.
"""

from __future__ import annotations

from math import gcd, lcm


def _sparse_integer_rows(matrix):
    out = []
    for row in matrix:
        entries = {j: x for j, x in enumerate(row) if x}
        den = lcm(*(x.denominator for x in entries.values()))
        out.append({j: int(x * den) for j, x in entries.items()})
    return out


def bareiss_echelon(matrix):
    """Fraction-free forward elimination.

    Returns (rows, pivot_cols, pivot_rows): an upper echelon integer
    matrix, the pivot column indices, and for each pivot the index of the
    input row it came from.  A pivot row is moved up, not swapped, so the
    rows below it keep their input order; input row i is then in
    `pivot_rows` exactly when it is not in the span of rows 0..i-1.

    A pivot p updates each row with an entry r in its column to
    (p/g) * row - (r/g) * pivot_row, with g = gcd(p, r), divided by the gcd
    of its entries; a row that no pivot touches is left as it is.  The
    Bareiss row (Math. Comp. 22, 1968) spans the same line as each updated
    row, which is primitive, so no entry exceeds a minor of the input.
    Rows are {column: entry} dicts, bucketed by leading column while they
    are not pivots, so a pivot updates only the rows that use its column.
    """
    sparse = _sparse_integer_rows(matrix)
    if not sparse:
        return [], [], []
    ncols = len(matrix[0])
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
            update = {j: a * x for j, x in row.items()}
            for j, y in pivot_row.items():
                update[j] = update.get(j, 0) - b * y
            row = {j: x for j, x in update.items() if x}
            if row:
                content = gcd(*row.values())
                if content > 1:
                    row = {j: x // content for j, x in row.items()}
                below.setdefault(min(row), []).append(i)
            sparse[i] = row
        pivot_cols.append(c)
        pivot_rows.append(pivot)
    # every row that is not a pivot row has been reduced to zero
    rows = []
    for i in pivot_rows:
        row = [0] * ncols
        for j, x in sparse[i].items():
            row[j] = x
        rows.append(row)
    rows.extend([0] * ncols for _ in range(len(sparse) - len(pivot_rows)))
    return rows, pivot_cols, pivot_rows


def rank(matrix):
    if not matrix:
        return 0
    return len(bareiss_echelon(matrix)[1])


def nullspace(matrix, ncols=None):
    """Primitive integer basis of {x : M x = 0}, one vector per free column.

    Each vector starts as 1 at its free column and 0 on the others, and is
    solved from the last pivot row up over that row's nonzero entries.
    Where a pivot p does not divide the row's sum s, the vector is first
    scaled by p / gcd(s, p), so each division is exact.  The vector is then
    divided by its content and signed so that its first nonzero entry is
    positive: with one free entry fixed, it is unique up to scale.
    """
    if not matrix:
        if ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [
            [1 if j == f else 0 for j in range(ncols)] for f in range(ncols)
        ]
    rows, pivot_cols, _ = bareiss_echelon(matrix)
    ncols = len(rows[0])
    pivots = set(pivot_cols)
    tails = [
        [(j, row[j]) for j in range(c + 1, ncols) if row[j]]
        for row, c in zip(rows, pivot_cols)
    ]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        sol = {f: 1}
        for r in range(len(pivot_cols) - 1, -1, -1):
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
        g = gcd(*sol.values())
        if sol[min(sol)] < 0:
            g = -g
        basis.append([sol.get(j, 0) // g for j in range(ncols)])
    return basis
