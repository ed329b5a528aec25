"""Perpetuants: dimension series, the threshold filter selecting a basis,
decomposable spans and the direct-sum certificate.

The certificate is the falsifiable output of the whole construction: it
records exact ranks and a boolean, never raises on a failed check.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .basis import DimensionSeries, InvariantElement, dim_series, invariant_rows

# No caller here; perfbench's binding-site test wraps these names in this module.
from .basis import kernel_oracle, span_rank, u_basis  # noqa: F401
from .linalg import row_ranks
from .polycore import ExponentVector, Poly
from .symfunc import (
    e_indices,
    q_n_leading_monomial,
    reduced_e_leading_monomial,
    transition_alpha,
)
from .umbral import lowering_matrix, monomial_index


def stroh_series(n, g_max):
    """Perpetuant dimensions by weight.

    x^(2^(n-1)-1)/((1-x^2)...(1-x^n)) for n > 2; x^2/(1-x^2) for n = 2
    (one perpetuant in every positive even weight); a single weight-0
    perpetuant for n = 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if g_max < 0:
        raise ValueError("negative weight")
    coeffs = [0] * (g_max + 1)
    if n == 1:
        coeffs[0] = 1
    elif n == 2:
        for g in range(2, g_max + 1, 2):
            coeffs[g] = 1
    elif n - 1 < (g_max + 1).bit_length():
        # otherwise 2^(n-1) > g_max + 1 and the series is zero up to g_max
        shift = 2 ** (n - 1) - 1
        base = dim_series(n, g_max - shift).coefficients
        for g in range(shift, g_max + 1):
            coeffs[g] = base[g - shift]
    return DimensionSeries(n, coeffs)


@dataclass(frozen=True)
class ThresholdVector:
    """The componentwise threshold on (k2,...,kn) selecting perpetuants."""

    n: int
    k: tuple

    def weight(self):
        return sum((i + 2) * ki for i, ki in enumerate(self.k))

    def dominates(self, other_k):
        """other_k >= self.k componentwise."""
        return all(o >= s for o, s in zip(other_k, self.k))


@lru_cache(maxsize=None)
def threshold(n):
    """(0, 2^(n-4), ..., 2, 1, 1), which is (0, 1) for n = 3.

    Checks the paper's lemma at run time, once per n and without any
    expansion: the threshold's e-monomial, reduced modulo L1 + ... + Ln,
    leads with the leading exponent of q_n.  Lex order is a monomial
    order, so that e-monomial leads with the sum of k_i times the leading
    exponent of reduced e_i, over i >= 2.
    """
    if n < 3:
        raise ValueError("threshold is defined for n >= 3")
    vec = (0,) + tuple(2 ** (n - 1 - i) for i in range(3, n)) + (1,)
    tv = ThresholdVector(n, vec)
    if tv.weight() != 2 ** (n - 1) - 1:
        raise AssertionError("threshold weight mismatch")
    exponent = Counter()
    for i, ki in enumerate(vec, start=2):
        for j, e in reduced_e_leading_monomial(i, n)[1]:
            exponent[j] += ki * e
    ours, theirs = ExponentVector(exponent), q_n_leading_monomial(n)[1]
    if ours != theirs:
        raise AssertionError(
            f"the degree-{n} threshold's reduced e-monomial leads with "
            f"{ours.as_tuple(n - 1, first_index=1)}, q_{n} with "
            f"{theirs.as_tuple(n - 1, first_index=1)}"
        )
    return tv


def perpetuant_basis(n, g):
    """The u_basis elements whose index dominates the threshold vector.

    Empty whenever g < 2^(n-1) - 1; the count always equals the Stroh
    coefficient at weight g (checked by the certificate, not here).
    """
    if n < 3:
        raise ValueError(
            "n <= 2 is special: use degree2_perpetuant, or a_0 for n = 1"
        )
    return [
        InvariantElement.from_alpha_row(n, g, k, row)
        for k, row in _alpha_rows(n, g, _selected_indices(n, g))
    ]


def _chosen_indices(n, g, t):
    """The e-indices k = (0, k2, ..., kn) of weight g whose (k2,...,kn)
    dominates the `ThresholdVector` t, in the canonical order."""
    return [k for k in e_indices(n, g) if k[0] == 0 and t.dominates(k[1:])]


def _selected_indices(n, g):
    """`_chosen_indices` for the threshold of degree n.  Neither the
    threshold nor any index is built when g lies below its weight
    2^(n-1) - 1, decided as in `stroh_series`."""
    if n - 1 >= (g + 1).bit_length():
        return []
    return _chosen_indices(n, g, threshold(n))


def _alpha_rows(n, g, indices):
    """(k, row) for each e-index k of `indices` in the column order of
    alpha(n, g), with row the {position: coefficient} dict of the nonzero
    entries of alpha's row k over `monomial_index(n, g)`.  Only these rows
    become dicts, and alpha(n, g) is built only when `indices` is not
    empty."""
    wanted = set(indices)
    if not wanted:
        return []
    alpha = transition_alpha(n, g)
    return [
        (k, {j: x for j, x in enumerate(row) if x})
        for k, row in zip(alpha.cols, alpha.entries)
        if k in wanted
    ]


def degree2_perpetuant(g):
    """The unique degree-2 U-invariant of even weight g, up to scale.

    2*a0*a_g - 2*a1*a_(g-1) + ... with the middle square carrying the
    alternating sign; zero spaces (odd g) are an error here.
    """
    if g <= 0 or g % 2:
        raise ValueError("degree-2 perpetuants exist only in even weight >= 2")
    h = g // 2
    terms = []
    for j in range(h):
        sign = 1 if j % 2 == 0 else -1
        terms.append((ExponentVector({j: 1, g - j: 1}), 2 * sign))
    terms.append((ExponentVector({h: 2}), (-1) ** h))
    return Poly("a", terms)


def decomposable_span(n, g):
    """Products of two positive-degree U-invariants with degrees summing
    to n and weights summing to g; their span is the decomposable part of
    S_{n,g}."""
    rows = decomposable_rows(n, g)
    index = monomial_index(n, g)
    return [index.poly(row) for row in rows]


def decomposable_rows(n, g):
    """The products of `decomposable_span`, in its order, as
    {position: coefficient} rows over `monomial_index(n, g)`."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _products(n, g, 1)


def _products(n, g, low):
    """The products u * v of the `invariant_rows` of (h, j) and
    (n - h, g - j), for low <= h <= n / 2 and 0 <= j <= g, h first, as
    {position: coefficient} rows over `monomial_index(n, g)`.

    The monomial a_p * a_q is a_(p merged with q), so each block of
    factors gets one table of the merged positions, and a product row is
    summed into that table's positions.
    """
    index = monomial_index(n, g)
    position = index.parts_position
    out = []
    for h in range(low, n // 2 + 1):
        for j in range(g + 1):
            left = invariant_rows(h, j)
            if not left:
                continue
            right = invariant_rows(n - h, g - j)
            right_parts = monomial_index(n - h, g - j).parts
            merged = [
                [position[tuple(sorted(p + q, reverse=True))] for q in right_parts]
                for p in monomial_index(h, j).parts
            ]
            right_terms = [v.items() for _, v in right]
            for _, u in left:
                u_terms = [(merged[a], x) for a, x in u.items()]
                for v_terms in right_terms:
                    row = {}
                    for at, x in u_terms:
                        for b, y in v_terms:
                            k = at[b]
                            row[k] = row.get(k, 0) + x * y
                    out.append({j: x for j, x in row.items() if x})
    return out


@dataclass
class ComplementCertificate:
    n: int
    g: int
    dim_total: int
    dim_decomposable: int
    dim_perpetuant: int
    direct_sum_ok: bool
    stroh_coefficient: int

    def to_json_dict(self):
        return {
            "n": self.n,
            "g": self.g,
            "dim_total": self.dim_total,
            "dim_dec": self.dim_decomposable,
            "dim_perp": self.dim_perpetuant,
            "stroh": self.stroh_coefficient,
            "ok": self.direct_sum_ok,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict())

    def __str__(self):
        status = "ok" if self.direct_sum_ok else "FAILED"
        return (
            f"(n={self.n}, g={self.g}) total={self.dim_total} "
            f"dec={self.dim_decomposable} perp={self.dim_perpetuant} "
            f"stroh={self.stroh_coefficient} {status}"
        )


@lru_cache(maxsize=None)
def _kernel_dim(n, g):
    """dim ker D on the degree-n weight-g monomials, independent of alpha:
    the monomial count less the rank of `lowering_matrix`.  Cached: a
    certificate at (n, g) reads the cells (n - 1, g) and (n, g - n), which
    a run over a range of n or g certifies or reads again.

    D is ranked in its own column order, not sparsest columns first as in
    linalg.row_ranks: it is already echelon there, so no pivot updates a
    row.  On a 2-vCPU Xeon with CPython 3.11, rank(D) took 0.003 s in that
    order against 0.15 s sparsest columns first at (6,31), while sparsest
    first takes the (6,25) products from 0.89 s to 0.38 s.
    """
    width = len(monomial_index(n, g).parts)
    return width - linalg.rank(lowering_matrix(n, g), width)


def verify_complement(n, g):
    """Certify that decomposables plus the threshold-selected basis give a
    direct-sum decomposition of S_{n,g} with the predicted perpetuant
    count.  All ranks are exact; a failed check is reported as data.

    The ranks are taken on the a_0 quotient.  Let pi drop the terms that
    contain a_0, and let sigma map a_i to a_(i+1).  Since D a_0 = 0, the
    kernel of pi on S_{n,g} is a_0 * S_{n-1,g}, and those are decomposable
    products.  An n-part column of alpha(n, g) is its parent column raised,
    so pi(U_k(n, g)) = sigma(U_(k - eps_n)(n, g - n)), and 0 when k_n = 0.
    pi is multiplicative, so pi of the decomposables is sigma of the span
    of the products u' * v' of degrees h and n - h, 2 <= h <= n / 2, with
    weights summing to g - n.  Hence, over `monomial_index(n, g - n)`:

        dim_dec = dim S_{n-1,g} + rank(products),
        rank(dec + selected) = dim S_{n-1,g} + rank(products + selected'),

    with selected' the alpha(n, g - n) rows k - eps_n of the selected k.
    Every dimension of S is a `_kernel_dim`, and total = dim S_{n-1,g} +
    dim S_{n,g-n} is checked on every call.  When g < n every monomial
    holds a_0: there is no quotient, and no alpha and no product is built.
    """
    if n < 3:
        raise ValueError("certificates are defined for n >= 3")
    total = _kernel_dim(n, g)
    lower = _kernel_dim(n - 1, g)
    chosen = _selected_indices(n, g)
    upper = dec_rank = union_rank = 0
    if g >= n:
        upper = _kernel_dim(n, g - n)
        # the threshold's last entry is 1, so every chosen k has k_n >= 1
        lowered = [k[:-1] + (k[-1] - 1,) for k in chosen]
        perp = [row for _, row in _alpha_rows(n, g - n, lowered)]
        dec_rank, union_rank = row_ranks(
            _products(n, g - n, 2), perp, ncols=len(monomial_index(n, g - n).parts)
        )
    dim_dec = lower + dec_rank
    dim_perp = len(chosen)
    stroh = stroh_series(n, g)[g]
    ok = (
        total == lower + upper
        and lower + union_rank == dim_dec + dim_perp == total
        and dim_perp == stroh
    )
    return ComplementCertificate(n, g, total, dim_dec, dim_perp, ok, stroh)


def index_count(n, g, threshold_vec):
    """Number of indices (k2,...,kn) of weight g dominating a threshold,
    counted on the e-indices alone (no polynomials built)."""
    return len(_chosen_indices(n, g, ThresholdVector(n, threshold_vec)))
