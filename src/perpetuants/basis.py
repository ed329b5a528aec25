"""Bases of the U-invariant spaces S_{n,g} and their cross-validation.

Two independent routes are implemented on purpose: `u_basis` extracts the
invariants from the transition-matrix expansion of the potenziante, while
`kernel_oracle` computes the kernel of the lowering derivation by brute
force linear algebra.  Their agreement is checked, not assumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import linalg
from .linalg import row_ranks
from .polycore import FamilyMismatchError, Poly
from .symfunc import partition_counts, transition_alpha
from .umbral import lowering_matrix, monomial_index


@dataclass
class InvariantElement:
    """U_{k2,...,kn}: a basis U-invariant with its e-monomial index.

    The polynomial is the exact integer output of the alpha transition
    matrix; no content reduction is applied (a reproducibility choice).
    """

    k: tuple  # (k2,...,kn)
    degree: int
    weight: int
    poly: Poly

    @classmethod
    def from_alpha_row(cls, n, g, k, row):
        """U_(k2,...,kn) from the `invariant_rows` row paired with
        k = (0, k2, ..., kn).  The polynomial keeps a copy of the row as
        its row over `monomial_index(n, g)`."""
        return cls(k[1:], n, g, monomial_index(n, g).poly(row))

    def to_json_dict(self):
        return {
            "k": list(self.k),
            "degree": self.degree,
            "weight": self.weight,
            "poly": self.poly.to_json_dict(),
        }

    def to_json(self):
        return json.dumps(self.to_json_dict())


def invariant_rows(n, g):
    """(k, row) for each basis invariant of S_{n,g}: the alpha rows whose
    e-index k has k1 = 0, in the canonical column order.

    The row paired with k is the {position: coefficient} dict of the
    nonzero coefficients of U~_k over `monomial_index(n, g)`:
    U~_k = sum_h alpha[k][h] a_h.
    """
    alpha = transition_alpha(n, g)
    return [
        (k, {j: x for j, x in enumerate(row) if x})
        for k, row in zip(alpha.cols, alpha.entries)
        if k[0] == 0
    ]


def u_basis(n, g):
    """Basis of S_{n,g} extracted from the potenziante e-expansion.

    One element per index (0, k2, ..., kn) with sum i*k_i = g, in the
    canonical column order; empty when no such index exists.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    # S_{n,g} is empty, and no alpha is built, when a positive weight has
    # no partition into parts 2..n: for n = 1, for g = 1 and for odd g at
    # n = 2.  alpha(1, g) would be built for every weight below g, and an
    # e-index of alpha(n, 1) has n entries.
    if g and (n == 1 or g == 1 or (n == 2 and g % 2)):
        return []
    return [
        InvariantElement.from_alpha_row(n, g, k, row)
        for k, row in invariant_rows(n, g)
    ]


def kernel_oracle(n, g, max_var=None):
    """Exact basis of ker(D) on the degree-n weight-g monomial span
    (optionally only the monomials in a_0..a_max_var).

    Brute force: build the matrix of the derivation from the (n,g)
    monomial basis to the (n,g-1) one and take its `linalg.nullspace`.
    Over every monomial that matrix is already echelon: row t leads at
    the monomial t + e1 with entry 1, so no pivot updates a row, and the
    free columns, one basis vector each, are the monomials with h1 = h2,
    all solved in one packed sweep.  With max_var the rows may need
    elimination and pivots other than 1.  Independent of `u_basis` by
    construction.

    Each vector, renumbered to positions, is handed to
    `MonomialIndex.poly` as a {position: entry} dict, so the span checks
    read it back by `MonomialIndex.row` without a lookup.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    index = monomial_index(n, g)
    source = [
        j
        for j, h in enumerate(index.parts)
        if max_var is None or max(h, default=0) <= max_var
    ]
    vectors = linalg.nullspace(lowering_matrix(n, g, source), ncols=len(source))
    return [index.poly(dict(zip(map(source.__getitem__, vec), vec.values()))) for vec in vectors]


@dataclass
class DimensionSeries:
    """Coefficients of 1/((1-x^2)...(1-x^n)) up to a weight bound."""

    n: int
    coefficients: list

    def __getitem__(self, g):
        return self.coefficients[g]


def dim_series(n, g_max):
    """dim S_{n,g} for g = 0..g_max, by exact power-series division.

    Cross-checked at every weight against a count of the partitions with
    parts between 2 and n by their largest part (`partition_counts`); any
    disagreement is an implementation bug.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if g_max < 0:
        raise ValueError("negative weight")
    coeffs = [0] * (g_max + 1)
    coeffs[0] = 1
    # a part above g_max adds nothing up to g_max
    top = min(n, g_max)
    for part in range(2, top + 1):
        # multiply by 1/(1 - x^part)
        for g in range(part, g_max + 1):
            coeffs[g] += coeffs[g - part]
    for g, (c, count) in enumerate(zip(coeffs, partition_counts(top, 2))):
        if c != count:
            raise AssertionError(f"dimension series mismatch at ({n},{g})")
    return DimensionSeries(n, coeffs)


def _span_rows(*groups):
    """The nonzero a-polynomials of each group as rows over the monomial
    index of the first nonzero one, and the width of that index."""
    groups = [[p for p in group if not p.is_zero()] for group in groups]
    polys = [p for group in groups for p in group]
    if not polys:
        return groups, 0
    for p in polys:
        if p.family != "a":
            raise FamilyMismatchError("span ranks are defined for a-polynomials")
    first = next(iter(polys[0].exponents()))
    index = monomial_index(first.degree(), first.weight())
    return [[index.row(p) for p in group] for group in groups], len(index.parts)


def span_ranks(*groups):
    """`row_ranks` for a-polynomials of one common bidegree, read as rows
    over the monomial index of the first nonzero one."""
    rows, ncols = _span_rows(*groups)
    return row_ranks(*rows, ncols=ncols)


def span_rank(polys):
    """Exact rank of the span of a-polynomials of one common bidegree."""
    return span_ranks(polys)[0]


def span_equal(a_list, b_list):
    """Compare spans of two polynomial lists over one common bidegree.

    Returns (equal, rank_a, rank_b, rank_union).  Each list becomes rows
    once, and `linalg.union_ranks` validates and renumbers the rows of
    both once for its two eliminations, of b_list alone and of a_list
    followed by b_list.
    """
    (a_rows, b_rows), ncols = _span_rows(a_list, b_list)
    rank_a, rank_b, rank_union = linalg.union_ranks(a_rows, b_rows, ncols=ncols)
    return rank_a == rank_b == rank_union, rank_a, rank_b, rank_union


def in_span(p, polys):
    """Exact membership of p in the span of polys (same bidegree)."""
    rank, rank_with_p = span_ranks(polys, [p])
    return rank == rank_with_p
