"""Exact linear algebra: fraction-free (Bareiss) elimination.

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


def _brought_up_to(row, stamp, prev):
    if stamp == prev:
        return row
    return {j: x * prev // stamp for j, x in row.items()}


def bareiss_echelon(matrix):
    """Fraction-free forward elimination.

    Returns (rows, pivot_cols, pivot_rows): an upper echelon integer
    matrix, the pivot column indices, and for each pivot the index of the
    input row it came from.  A pivot row is moved up, not swapped, so the
    rows below it keep their input order; input row i is then in
    `pivot_rows` exactly when it is not in the span of rows 0..i-1.
    Division by the previous pivot is exact (Bareiss), since each entry
    stays a minor of the input.

    Rows are held as {column: entry} dicts, and the rows not yet used as
    pivots are bucketed by their leading column, so a pivot updates only
    the rows with a nonzero entry in its column.  A row that a pivot skips
    would only be scaled by p / prev; those factors telescope, so each row
    keeps the pivot of its last update (its stamp) and is brought up to
    date, as x * prev // stamp, when it is next touched.  The result is
    again a minor of the input, so that division is exact too, and the
    returned rows equal those of the dense loop entry for entry.
    """
    sparse = _sparse_integer_rows(matrix)
    if not sparse:
        return [], [], []
    ncols = len(matrix[0])
    stamps = [1] * len(sparse)
    below = {}  # leading column -> input indices of rows not yet pivots
    for i, row in enumerate(sparse):
        if row:
            below.setdefault(min(row), []).append(i)
    prev = 1
    pivot_cols = []
    pivot_rows = []
    for c in range(ncols):
        if not below:
            break
        bucket = below.pop(c, None)
        if bucket is None:
            continue
        pivot = min(bucket)
        pivot_row = _brought_up_to(sparse[pivot], stamps[pivot], prev)
        sparse[pivot] = pivot_row
        p = pivot_row[c]
        for i in bucket:
            if i == pivot:
                continue
            row = _brought_up_to(sparse[i], stamps[i], prev)
            ric = row[c]
            update = {j: p * x for j, x in row.items()}
            for j, y in pivot_row.items():
                update[j] = update.get(j, 0) - ric * y
            row = {j: x // prev for j, x in update.items() if x}
            sparse[i] = row
            stamps[i] = p
            if row:
                below.setdefault(min(row), []).append(i)
        prev = p
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

    Each vector is solved in integers with its free entry set to the last
    pivot, the determinant of the pivot block: by Cramer's rule every
    pivot entry is then an integer, so each division is exact.  The vector
    is zero on the other free columns, divided by its content and signed
    so that its first nonzero entry is positive.
    """
    if not matrix:
        if ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [
            [1 if j == f else 0 for j in range(ncols)] for f in range(ncols)
        ]
    rows, pivot_cols, _ = bareiss_echelon(matrix)
    ncols = len(rows[0])
    det = rows[len(pivot_cols) - 1][pivot_cols[-1]] if pivot_cols else 1
    pivots = set(pivot_cols)
    tails = [
        [(j, row[j]) for j in range(c + 1, ncols) if row[j]]
        for row, c in zip(rows, pivot_cols)
    ]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        sol = [0] * ncols
        sol[f] = det
        for r in range(len(pivot_cols) - 1, -1, -1):
            c = pivot_cols[r]
            s = sum(x * sol[j] for j, x in tails[r])
            q, rem = divmod(-s, rows[r][c])
            if rem:
                raise AssertionError(f"inexact division in null space column {f}")
            sol[c] = q
        g = gcd(*sol)
        if next(x for x in sol if x) < 0:
            g = -g
        basis.append([x // g for x in sol])
    return basis
