"""Exact matrix product for the tests: `matmul` checks alpha * beta = I
between the two independent constructions of the transition matrices."""


def matmul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]
