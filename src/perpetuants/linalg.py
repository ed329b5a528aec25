"""Exact linear algebra: fraction-free (Bareiss) elimination.

Matrices are lists of lists of ints or Fractions.  Rational input rows are
scaled to integers first (row scaling preserves rank, row span and null
space).  Elimination is deterministic: the pivot is always the first row
with a nonzero entry in the current column, so results are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integer_rows(matrix):
    out = []
    for row in matrix:
        den = 1
        for x in row:
            if isinstance(x, Fraction) and x.denominator != 1:
                den = lcm(den, x.denominator)
        out.append([int(x * den) for x in row])
    return out


def bareiss_echelon(matrix):
    """Fraction-free forward elimination.

    Returns (rows, pivot_cols, pivot_rows): an upper echelon integer
    matrix, the pivot column indices, and for each pivot the index of the
    input row it came from.  A pivot row is moved up, not swapped, so the
    rows below it keep their input order; input row i is then in
    `pivot_rows` exactly when it is not in the span of rows 0..i-1.
    Division by the previous pivot is exact (Bareiss), since each entry
    stays a minor of the input.
    """
    rows = _integer_rows(matrix)
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
        p = rows[r][c]
        for i in range(r + 1, nrows):
            ric = rows[i][c]
            row_i = rows[i]
            row_r = rows[r]
            for j in range(c, ncols):
                row_i[j] = (p * row_i[j] - ric * row_r[j]) // prev
        prev = p
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols, order[:r]


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
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        sol = [0] * ncols
        sol[f] = det
        for r in range(len(pivot_cols) - 1, -1, -1):
            c = pivot_cols[r]
            row = rows[r]
            s = sum(row[j] * sol[j] for j in range(c + 1, ncols) if sol[j])
            q, rem = divmod(-s, row[c])
            if rem:
                raise AssertionError(f"inexact division in null space column {f}")
            sol[c] = q
        g = gcd(*sol)
        if next(x for x in sol if x) < 0:
            g = -g
        basis.append([x // g for x in sol])
    return basis


def invert(matrix):
    """Exact inverse of a square matrix, entries as Fractions.

    Forward phase is fraction-free on the matrix augmented with the
    identity; the solve phase back-substitutes each unit column.  Kept
    as the general reference that the tests compare the transition
    matrices' forward substitution against.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    rows, pivot_cols, _ = bareiss_echelon(aug)
    # pivots must all fall in the left block
    if len([c for c in pivot_cols if c < n]) != n:
        raise ValueError("matrix is singular")
    inverse_cols = []
    left = [row[:n] for row in rows]
    for j in range(n):
        rhs = [Fraction(row[n + j]) for row in rows]
        # solve left * x = -rhs shifted: rows are [L | R], L x + R e_j = 0
        # treat augmented columns as knowns
        sol = [Fraction(0)] * n
        for r in range(n - 1, -1, -1):
            c = pivot_cols[r]
            s = rhs[r]
            for k in range(c + 1, n):
                if left[r][k] and sol[k]:
                    s += left[r][k] * sol[k]
            sol[c] = -s / left[r][c]
        inverse_cols.append(sol)
    # columns of the inverse of M are the solutions of M x = e_j, but the
    # elimination solved M x + e_j = 0; flip the sign.
    return [[-inverse_cols[j][i] for j in range(n)] for i in range(n)]


def matmul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]
