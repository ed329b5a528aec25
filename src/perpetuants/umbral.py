"""Divided-power umbral monomials, the evaluation map into a-variables,
the lowering derivation on coefficients, the translation action and the
potenziante expansion.

Umbral exponents carry divided-power semantics: exponent r on the i-th
umbra stands for the divided power with all factorials absorbed, so the
evaluation map sends it to a plain a_r factor and the multinomial
expansion used by the potenziante has all coefficients equal to 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import comb, factorial

from .polycore import ExponentVector, Poly
from .symfunc import (
    Partition,
    monomial_sum,
    partition_parts,
    partition_positions,
    partitions_at_most,
    transition_alpha,
)


def _exponents(r):
    """r as a tuple of ints; ValueError unless each is a nonnegative integer."""
    r = tuple(r)
    if any(x < 0 or int(x) != x for x in r):
        raise ValueError("exponents must be nonnegative integers")
    return tuple(map(int, r))


@dataclass(frozen=True)
class UmbralMonomial:
    """Divided-power exponents (r1,...,rn) of the n umbrae."""

    r: tuple
    ambient: int

    def __post_init__(self):
        r = _exponents(self.r)
        if len(r) != self.ambient:
            raise ValueError("exponent list must have length ambient")
        object.__setattr__(self, "r", r)


class UmbralPoly:
    """Linear combination of umbral monomials over a fixed set of umbrae."""

    def __init__(self, n, terms=()):
        self.n = n
        collected = {}
        for r, c in (terms.items() if isinstance(terms, dict) else terms):
            r = _exponents(r)
            if len(r) != n:
                raise ValueError("wrong number of umbrae")
            c = Fraction(c) + collected.get(r, 0)
            if c:
                collected[r] = c
            elif r in collected:
                del collected[r]
        self.terms = collected

    @classmethod
    def monomial(cls, r, n, coeff=1):
        return cls(n, [(tuple(r), coeff)])

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("ambient mismatch")
        return UmbralPoly(self.n, chain(self.terms.items(), other.terms.items()))

    def __mul__(self, other):
        """Product with divided-power semantics.

        x^[r] * x^[s] = binom(r+s, r) x^[r+s] on each umbra separately.
        """
        if self.n != other.n:
            raise ValueError("ambient mismatch")
        out = []
        for r, cr in self.terms.items():
            for s, cs in other.terms.items():
                coeff = cr * cs
                for a, b in zip(r, s):
                    if a and b:
                        coeff *= comb(a + b, a)
                out.append((tuple(a + b for a, b in zip(r, s)), coeff))
        return UmbralPoly(self.n, out)

    def partial(self, i):
        """Divided-power partial derivative in the i-th umbra (1-based)."""
        return UmbralPoly(
            self.n,
            (
                (r[: i - 1] + (r[i - 1] - 1,) + r[i:], c)
                for r, c in self.terms.items()
                if r[i - 1]
            ),
        )

    def __eq__(self, other):
        return isinstance(other, UmbralPoly) and self.n == other.n and self.terms == other.terms


def umbral_E(m):
    """Evaluation of an umbral monomial or polynomial into a-variables.

    A monomial with exponents (r1,...,rn) goes to a_r1 * ... * a_rn; the
    umbrae with exponent 0 each contribute an a_0 factor.  Extends
    linearly to UmbralPoly.
    """
    if isinstance(m, UmbralMonomial):
        return Poly.monomial("a", _a_exponent(m.r))
    return Poly("a", ((_a_exponent(r), c) for r, c in m.terms.items()))


def _a_exponent(parts, n=0):
    """Exponent vector of a_p1 * a_p2 * ..., one factor per entry, times
    a_0 for each of the n - len(parts) entries short of n, without
    padding the entries."""
    exps = {0: n - len(parts)} if n > len(parts) else {}
    for x in parts:
        exps[x] = exps.get(x, 0) + 1
    return ExponentVector._of(sorted(exps.items()))


def derivation_D(p):
    """The lowering derivation sum_i a_(i-1) d/d a_i, applied exactly."""
    out = []
    for ev in p.exponents():
        c = p.coefficient(ev)
        for i, e in ev.entries:
            if i == 0:
                continue
            exps = dict(ev.entries)
            exps[i] -= 1
            exps[i - 1] = exps.get(i - 1, 0) + 1
            out.append((ExponentVector(exps), c * e))
    return Poly("a", out)


def translate(p):
    """Translation action with an exact formal parameter t.

    Substitutes every a_k by sum_j a_j t^(k-j)/(k-j)! and expands.
    Returns a dict mapping the power of t to its a-polynomial coefficient;
    a translation-invariant polynomial comes back as {0: p}.  The
    coefficient of t^1 is always derivation_D(p).
    """
    images = {}

    def var_image(k):
        if k not in images:
            images[k] = {
                k - j: Poly.monomial("a", ExponentVector({j: 1}), Fraction(1, factorial(k - j)))
                for j in range(k + 1)
            }
        return images[k]

    total = {0: Poly.zero("a")}
    for ev in p.exponents():
        term = {0: Poly.constant("a", p.coefficient(ev))}
        for i, e in ev.entries:
            img = var_image(i)
            for _ in range(e):
                nxt = {}
                for d1, p1 in term.items():
                    for d2, p2 in img.items():
                        prod = p1 * p2
                        if d1 + d2 in nxt:
                            nxt[d1 + d2] = nxt[d1 + d2] + prod
                        else:
                            nxt[d1 + d2] = prod
                term = nxt
        for d, poly in term.items():
            total[d] = total.get(d, Poly.zero("a")) + poly
    return {d: poly for d, poly in total.items() if not poly.is_zero() or d == 0}


def is_translation_invariant(p):
    t = translate(p)
    return set(t) <= {0} and t.get(0, Poly.zero("a")) == p


def a_monomial_for(partition, n):
    """The product a_h1 * ... * a_hn with zero parts contributing a_0."""
    parts = partition.parts if isinstance(partition, Partition) else _exponents(partition)
    if len(parts) > n:
        raise ValueError("more parts than variables")
    return Poly.monomial("a", _a_exponent(parts, n))


class MonomialIndex:
    """The degree-n weight-g a-monomials, one per partition of g with at
    most n parts, in `partition_parts` order (the row order of the
    transition matrices).

    `parts[j]` is the partition of position j as a tuple of its nonzero
    parts, and `parts_position` is `partition_positions(g, n)`, the shared
    map of such a tuple back to its position; the integer-row computations
    work on these alone.  Every conversion between an a-polynomial of
    bidegree (n, g) and an integer row over these monomials goes through
    `row` and `poly`, whose exponent vectors are built on first use.  A
    Poly that `poly` builds from a {position: nonzero int} dict keeps a
    copy of that dict as its row over this index, and `row` reads a copy
    of it back, hashing no monomial, when this same index asks; for any
    other Poly, or another index, `row` looks every monomial up in
    `position`.
    """

    def __init__(self, n, g):
        self.bidegree = (n, g)
        self.parts = partition_parts(g, n)
        self.parts_position = partition_positions(g, n)

    @cached_property
    def exponents(self):
        n = self.bidegree[0]
        return tuple(_a_exponent(h, n) for h in self.parts)

    @cached_property
    def position(self):
        return {ev: j for j, ev in enumerate(self.exponents)}

    def row(self, p):
        """The nonzero coefficients of p as a {position: coefficient} dict.

        Raises ValueError, naming the monomial, when p has a term of
        another bidegree.  A Poly built by this index's `poly` from a row
        dict gives a copy of that row, read without a lookup.
        """
        memo = p.row_over(self.exponents)
        if memo is not None:
            return memo
        position = self.position
        try:
            return {position[ev]: c for ev, c in p.items()}
        except KeyError as missing:
            ev = missing.args[0]
            raise ValueError(
                f"mixed bidegrees: {Poly.monomial('a', ev)} is not of "
                f"bidegree {self.bidegree}"
            ) from None

    def poly(self, coefficients):
        """The sum of c times the monomial at position j, over a {j: c}
        dict or (j, c) pairs.  An int position outside the index raises
        ValueError.  The Poly keeps a copy of a dict of nonzero ints as
        its row over this index, which `row` reads back."""
        exponents = self.exponents
        if type(coefficients) is not dict:
            return Poly("a", [(exponents[self._inside(j)], c) for j, c in coefficients])
        try:
            return Poly._over("a", exponents, coefficients)
        except IndexError:
            # every position is an int, and the least or the greatest is outside
            self._inside(min(coefficients))
            self._inside(max(coefficients))
            raise

    def _inside(self, j):
        """j, or ValueError when j is an int outside the index."""
        if type(j) is int and not 0 <= j < len(self.parts):
            raise ValueError(
                f"position {j} is outside the {len(self.parts)} monomials of "
                f"bidegree {self.bidegree}"
            )
        return j


@lru_cache(maxsize=None)
def monomial_index(n, g):
    """The cached `MonomialIndex` of bidegree (n, g)."""
    return MonomialIndex(n, g)


def lowering_matrix(n, g, source=None):
    """The matrix of `derivation_D` from degree-n weight-g a-polynomials
    to weight g - 1, built from partition arithmetic alone.

    Row i is position i of `monomial_index(n, g - 1)`; column c is
    position source[c] of `monomial_index(n, g)` (every position when
    source is None).  D lowers one factor a_v of a_h to a_(v-1), once
    for each of the m factors equal to a_v: that gives m times a_h', where
    h' is h with its last part v replaced by v - 1 (a part 1 becomes an
    a_0 and leaves the partition), so h' stays weakly decreasing.  Empty
    at g = 0, where there is no weight -1.

    The rows are {column: entry} dicts of their nonzero entries, over
    len(source) columns.
    """
    parts = monomial_index(n, g).parts
    if source is None:
        source = range(len(parts))
    if not g:
        return []
    target = monomial_index(n, g - 1).parts_position
    matrix = [{} for _ in range(len(target))]
    for c, j in enumerate(source):
        h = parts[j]
        start = 0
        for i, v in enumerate(h):
            if i + 1 < len(h) and h[i + 1] == v:
                continue
            # h[start:i + 1] are the m = i + 1 - start parts equal to v
            lowered = h[:i] + (v - 1,) if v > 1 else h[:i]
            matrix[target[lowered + h[i + 1:]]][c] = i + 1 - start
            start = i + 1
    return matrix


@dataclass
class PotenziantExpansion:
    """The pairing of symmetric functions with degree-n weight-g a-polynomials.

    rows: one (partition h, m_h as an L-polynomial, a-monomial) triple per
    partition of g with at most n parts.  e_rows: the same tensor written
    in the e-monomial basis, pairing each exponent k with the a-polynomial
    U~_k obtained through the alpha transition matrix.
    """

    n: int
    g: int
    rows: list
    e_rows: list

    def __str__(self):
        chunks = []
        for h, _, amon in self.rows:
            label = "m_{" + ",".join(str(x) for x in h.padded(self.n)) + "}"
            chunks.append(f"{label}*{amon}")
        return " + ".join(chunks)

    def to_json_dict(self):
        return {
            "n": self.n,
            "g": self.g,
            "rows": [
                {"h": list(h.padded(self.n)), "a": str(amon)}
                for h, _, amon in self.rows
            ],
            "e_rows": [{"k": list(k), "U": str(u)} for k, u in self.e_rows],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict())


def potenziante(n, g):
    """Expansion of E((L1 a1 + ... + Ln an)^[g]) in both bases."""
    if n < 1 or g < 0:
        raise ValueError("need n >= 1 and g >= 0")
    parts = partitions_at_most(g, n)
    rows = [(h, monomial_sum(h, n), a_monomial_for(h, n)) for h in parts]
    alpha = transition_alpha(n, g)
    index = monomial_index(n, g)
    e_rows = [
        (k, index.poly({j: x for j, x in enumerate(row) if x}))
        for k, row in zip(alpha.cols, alpha.entries)
    ]
    return PotenziantExpansion(n, g, rows, e_rows)


def _compositions(g, n):
    if n == 1:
        yield (g,)
        return
    for first in range(g + 1):
        for rest in _compositions(g - first, n - 1):
            yield (first,) + rest


def potenziante_tensor(n, g, lambda_indices=None):
    """The same tensor as a map from a-exponent vectors to L-polynomials.

    Useful for identities mixing the two variable families; the optional
    lambda_indices picks which L-variables carry the n slots.
    """
    if lambda_indices is None:
        lambda_indices = list(range(1, n + 1))
    if len(lambda_indices) != n:
        raise ValueError("need one lambda index per umbra")
    out = {}
    for r in _compositions(g, n):
        aev = _a_exponent(r)
        lev = {}
        for idx, e in zip(lambda_indices, r):
            if e:
                lev[idx] = lev.get(idx, 0) + e
        mono = Poly.monomial("L", ExponentVector(lev))
        out[aev] = out.get(aev, Poly.zero("L")) + mono
    return out


def tensor_mul(t1, t2):
    """Product of two a-exponent -> L-polynomial tensors."""
    out = {}
    for a1, l1 in t1.items():
        for a2, l2 in t2.items():
            key = a1 * a2
            prod = l1 * l2
            out[key] = out.get(key, prod * 0) + prod
    return {k: v for k, v in out.items() if not v.is_zero()}


def tensor_scale_L(t, lpoly):
    return {k: v * lpoly for k, v in t.items()}


def tensor_apply_D(t):
    """Apply the lowering derivation to every a-side coefficient, recollect."""
    out = {}
    for aev, lpoly in t.items():
        d = derivation_D(Poly.monomial("a", aev))
        for ev in d.exponents():
            out[ev] = out.get(ev, Poly.zero("L")) + lpoly.scale(d.coefficient(ev))
    return {k: v for k, v in out.items() if not v.is_zero()}


def tensor_equal(t1, t2):
    t1 = {k: v for k, v in t1.items() if not v.is_zero()}
    t2 = {k: v for k, v in t2.items() if not v.is_zero()}
    return t1 == t2
