"""Binary forms: the c_k generators obtained by translating away a_1, the
covariant order relation, and the classical degree-3/degree-4 relations
including the decomposability of the discriminant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .basis import in_span, kernel_oracle
from .perpetua import decomposable_span
from .polycore import ExponentVector, Poly


@dataclass(frozen=True)
class CovariantProfile:
    """Degree k, weight g and order p = n*k - 2*g of a covariant source."""

    n: int
    k: int
    g: int
    p: int

    @property
    def is_invariant(self):
        return self.p == 0


def covariant_order(n, k, g):
    p = n * k - 2 * g
    if p < 0:
        raise ValueError(f"no covariant with n={n}, k={k}, g={g} (order {p})")
    return CovariantProfile(n, k, g, p)


def c_k(k):
    """The U-invariant of degree k and weight k obtained from the shift
    x -> x - a1/a0 applied to a monic polynomial:

        c_k = (-1)^k (1-k) a1^k / k!
              + sum_{j=2}^{k} (-1)^(k-j) a0^(j-1) a_j a1^(k-j) / (k-j)!
    """
    if k < 2:
        raise ValueError("c_k is defined for k >= 2")
    terms = [
        (
            ExponentVector({1: k}),
            Fraction((-1) ** k * (1 - k), factorial(k)),
        )
    ]
    for j in range(2, k + 1):
        exps = {0: j - 1, j: 1}
        if k - j:
            exps[1] = k - j
        terms.append(
            (ExponentVector(exps), Fraction((-1) ** (k - j), factorial(k - j)))
        )
    return Poly("a", terms)


def divide_by_a0_power(p, power):
    """Exact quotient p / a0^power; raises if some term is not divisible."""
    terms = []
    for ev in p.exponents():
        e0 = ev.get(0)
        if e0 < power:
            raise ArithmeticError(
                f"term {ev!r} of {p} is not divisible by a0^{power}"
            )
        exps = {i: e for i, e in ev.entries if i != 0}
        if e0 > power:
            exps[0] = e0 - power
        terms.append((ExponentVector(exps), p.coefficient(ev)))
    return Poly("a", terms)


# the classical degree-3 and degree-4 invariants, in expanded form
DISCRIMINANT_CUBIC = Poly.parse(
    "9*a0^2*a3^2 - 18*a0*a1*a2*a3 + 8*a0*a2^3 + 6*a1^3*a3 - 3*a1^2*a2^2"
)
INVARIANT_B = Poly.parse("2*a0*a4 - 2*a1*a3 + a2^2")
INVARIANT_C = Poly.parse(
    "2*a2^3 - 6*a1*a2*a3 + 9*a0*a3^2 + 6*a1^2*a4 - 12*a0*a2*a4"
)


def _quotient(p, power, expected, name):
    q = divide_by_a0_power(p, power)
    if q != expected:
        raise AssertionError(f"{name} quotient does not match")
    return q


def verify_s3():
    """Check 8 c2^3 + 9 c3^2 = a0^2 D and return the discriminant D."""
    c2, c3 = c_k(2), c_k(3)
    return _quotient(c2 ** 3 * 8 + c3 ** 2 * 9, 2, DISCRIMINANT_CUBIC, "discriminant")


def verify_b():
    """Check 2 c4 + c2^2 = a0^2 B and return B."""
    c2, c4 = c_k(2), c_k(4)
    return _quotient(c4 * 2 + c2 ** 2, 2, INVARIANT_B, "B")


def verify_c():
    """Check 6 c2 B - D = -a0 C for the classical B and D, plus the closing
    relation 6 a0^2 c2 B + a0^3 C - 8 c2^3 - 9 c3^2 = 0.  Returns C."""
    c2, c3 = c_k(2), c_k(3)
    c = _quotient(DISCRIMINANT_CUBIC - c2 * INVARIANT_B * 6, 1, INVARIANT_C, "C")
    a0 = Poly.variable("a", 0)
    closing = a0 ** 2 * c2 * INVARIANT_B * 6 + a0 ** 3 * c - c2 ** 3 * 8 - c3 ** 2 * 9
    if not closing.is_zero():
        raise AssertionError("closing relation fails")
    return c


def verify_s4():
    """Check 2 c4 + c2^2 = a0^2 B and 6 c2 B - D = -a0 C, plus the closing
    relation, which with the second gives a0^2 D = 8 c2^3 + 9 c3^2.
    Returns (B, C)."""
    return verify_b(), verify_c()


@dataclass
class MembershipReport:
    """Decomposability of the cubic discriminant, degree 4 vs degree 3."""

    identity_holds: bool  # D = 6 c2 B + a0 C exactly
    in_limit_decomposables: bool  # D lies in the degree-4 decomposable span
    indecomposable_in_cubic_algebra: bool  # D not decomposable over a0..a3


def discriminant_decomposable_check():
    """The identity and memberships of the classical D, B and C; raises
    nothing when one fails."""
    d = DISCRIMINANT_CUBIC
    a0 = Poly.variable("a", 0)
    identity = d == c_k(2) * INVARIANT_B * 6 + a0 * INVARIANT_C
    in_dec = in_span(d, decomposable_span(4, 6))
    not_in_cubic_dec = not in_span(d, _cubic_algebra_decomposables())
    return MembershipReport(identity, in_dec, not_in_cubic_dec)


def relation_checks():
    """(name, ok, value) for each of the six classical checks, in a fixed
    order.  A failed identity, or a quotient that is not exact, is
    reported with its message as the value and never raised."""
    checks = []
    for name, verify in (
        ("8*c2^3 + 9*c3^2 = a0^2*D", verify_s3),
        ("2*c4 + c2^2 = a0^2*B", verify_b),
        ("6*c2*B - D = -a0*C", verify_c),
    ):
        try:
            checks.append((name, True, str(verify())))
        except (AssertionError, ArithmeticError) as e:
            checks.append((name, False, str(e)))
    report = discriminant_decomposable_check()
    return checks + [
        ("D = 6*c2*B + a0*C", report.identity_holds, ""),
        ("D decomposable in degree 4", report.in_limit_decomposables, ""),
        ("D indecomposable over a0..a3", report.indecomposable_in_cubic_algebra, ""),
    ]


def _cubic_algebra_decomposables():
    """Degree-4 weight-6 products of positive-degree U-invariants living in
    the variables a0..a3 (the invariants of the cubic form)."""
    out = []
    for h in (1, 2):
        for j in range(7):
            left = _restricted_invariants(h, j)
            if not left:
                continue
            for u in left:
                for v in _restricted_invariants(4 - h, 6 - j):
                    out.append(u * v)
    return out


def _restricted_invariants(n, g):
    return kernel_oracle(n, g, max_var=3)
