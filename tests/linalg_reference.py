"""General exact matrix inverse and product for the tests: `invert`
exercises `linalg.bareiss_echelon` on augmented systems, and `matmul`
checks alpha * beta = I between the two independent constructions of the
transition matrices.  The package itself never inverts a matrix."""

from fractions import Fraction

from perpetuants import linalg


def invert(matrix):
    """Exact inverse of a square matrix, entries as Fractions.

    Forward phase is fraction-free on the matrix augmented with the
    identity; the solve phase back-substitutes each unit column.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    rows, pivot_cols, _ = linalg.bareiss_echelon(aug)
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
