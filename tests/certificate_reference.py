"""The full-width complement certificate for the tests: every decomposable
product and every threshold-selected U_k ranked over all of
`monomial_index(n, g)`, with no a_0 quotient.  `verify_complement` must
agree with it, as text and as JSON."""

from perpetuants import linalg
from perpetuants.basis import invariant_rows
from perpetuants.linalg import row_ranks
from perpetuants.perpetua import (
    ComplementCertificate,
    decomposable_rows,
    stroh_series,
    threshold,
)
from perpetuants.umbral import lowering_matrix, monomial_index


def full_width_certificate(n, g):
    width = len(monomial_index(n, g).parts)
    total = width - linalg.rank(lowering_matrix(n, g), width)
    perp = []
    if n - 1 < (g + 1).bit_length():
        t = threshold(n)
        perp = [row for k, row in invariant_rows(n, g) if t.dominates(k[1:])]
    dim_dec, union_rank = row_ranks(decomposable_rows(n, g), perp, ncols=width)
    dim_perp = len(perp)
    stroh = stroh_series(n, g)[g]
    ok = union_rank == dim_dec + dim_perp == total and dim_perp == stroh
    return ComplementCertificate(n, g, total, dim_dec, dim_perp, ok, stroh)
