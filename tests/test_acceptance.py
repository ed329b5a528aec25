"""Acceptance gate: one test per headline claim, each printing a single
PASS/FAIL line on the real stdout so the result is visible in captured
logs too."""

import random
import time

import pytest

from perpetuants import (
    bar_reduce,
    degree2_perpetuant,
    derivation_D,
    e_monomial,
    is_translation_invariant,
    kernel_oracle,
    leading_exponent,
    leading_monomial,
    potenziante,
    q_n,
    q_n_leading_monomial,
    reduced_e_leading_monomial,
    span_equal,
    stroh_series,
    threshold,
    u_basis,
    umbral_E,
    verify_complement,
)
from perpetuants.perpetua import index_count
from perpetuants.umbral import (
    UmbralPoly,
    potenziante_tensor,
    tensor_apply_D,
    tensor_equal,
    tensor_scale_L,
)
from perpetuants.symfunc import elementary


@pytest.fixture
def report(capfd):
    def _report(ok, label):
        with capfd.disabled():
            print(f"{'PASS' if ok else 'FAIL'}  {label}", flush=True)
        assert ok, label

    return _report


def test_criterion_1_stroh_table_matches_certificates(report):
    t0 = time.time()
    ok = True
    cells = [(n, g) for n in (3, 4) for g in range(15)]
    cells += [(5, g) for g in range(15, 19)]
    for n, g in cells:
        cert = verify_complement(n, g)
        stroh = stroh_series(n, g)[g]
        ok = ok and cert.direct_sum_ok and cert.dim_perpetuant == stroh
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    report(ok, f"criterion 1: certified perpetuant dimensions match the generating series ({elapsed:.1f}s)")


def test_criterion_2_basis_equals_kernel_everywhere(report):
    t0 = time.time()
    ok = True
    for n in range(1, 6):
        for g in range(13):
            basis = u_basis(n, g)
            kernel = kernel_oracle(n, g)
            equal, *_ = span_equal([u.poly for u in basis], kernel)
            ok = ok and equal and len(basis) == len(kernel)
            for u in basis:
                ok = ok and derivation_D(u.poly).is_zero()
                ok = ok and is_translation_invariant(u.poly)
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(ok, f"criterion 2: basis spans the exact kernel with invariance, n<=5 g<=12 ({elapsed:.1f}s)")


def test_criterion_3_golden_expansions(report):
    ok = (
        str(potenziante(3, 3))
        == "m_{3,0,0}*a0^2*a3 + m_{2,1,0}*a0*a1*a2 + m_{1,1,1}*a1^3"
        and str(potenziante(3, 2)) == "m_{2,0,0}*a0^2*a2 + m_{1,1,0}*a0*a1^2"
    )
    report(ok, "criterion 3: golden display of the (3,3) and (3,2) expansions")


def test_criterion_4_leading_exponent_lemmas(report):
    ok = True
    for n in (3, 4, 5):
        expected = tuple(2 ** (n - 2 - i) for i in range(n - 1))
        ok = ok and leading_exponent(q_n(n)).as_tuple(n - 1, first_index=1) == expected
    for n in (4, 5):
        k = (0,) + threshold(n).k
        reduced = bar_reduce(e_monomial(k, n), n)
        ok = ok and leading_exponent(reduced) == leading_exponent(q_n(n))
    # the expansion-free route: q_n's leading term read off its forms, and
    # each reduced e_i's leading term, which `threshold` sums at run time
    for n in (3, 4, 5, 6):
        ok = ok and q_n_leading_monomial(n) == leading_monomial(q_n(n))
    for n in range(2, 8):
        for i in range(2, n + 1):
            k = tuple(int(j == i) for j in range(1, n + 1))
            reduced = bar_reduce(e_monomial(k, n), n)
            ok = ok and reduced_e_leading_monomial(i, n) == leading_monomial(reduced)
    report(ok, "criterion 4: leading exponents of q_n and of the threshold e-monomial")


def test_criterion_5_recursion_and_commutation(report):
    ok = True
    for n in range(1, 5):
        for g in range(1, 9):
            lut = dict(potenziante(n, g - 1).e_rows)
            for k, u in potenziante(n, g).e_rows:
                d = derivation_D(u)
                if k[0] == 0:
                    ok = ok and d.is_zero()
                else:
                    ok = ok and d == lut[(k[0] - 1,) + tuple(k[1:])]
            lhs = tensor_apply_D(potenziante_tensor(n, g))
            rhs = tensor_scale_L(potenziante_tensor(n, g - 1), elementary(1, n))
            ok = ok and tensor_equal(lhs, rhs)
    rng = random.Random(20260824)
    for _ in range(100):
        m = rng.randint(1, 4)
        terms = [
            (tuple(rng.randint(0, 5) for _ in range(m)), rng.randint(-5, 5))
            for _ in range(rng.randint(1, 4))
        ]
        u = UmbralPoly(m, terms)
        partial_sum = UmbralPoly(m)
        for i in range(1, m + 1):
            partial_sum = partial_sum + u.partial(i)
        ok = ok and umbral_E(partial_sum) == derivation_D(umbral_E(u))
    report(ok, "criterion 5: lowering recursion, series recursion and commutation with E")


def test_criterion_6_classical_identities(report):
    from perpetuants import (
        c_k,
        discriminant_decomposable_check,
        verify_s3,
        verify_s4,
    )
    from perpetuants.polycore import Poly

    a0 = Poly.variable("a", 0)
    ok = True
    d = verify_s3()
    b, c = verify_s4()
    ok = ok and c_k(2) ** 3 * 8 + c_k(3) ** 2 * 9 == a0 ** 2 * d
    ok = ok and c_k(4) * 2 + c_k(2) ** 2 == a0 ** 2 * b
    ok = ok and 6 * c_k(2) * b - d == -a0 * c
    ok = ok and d == 6 * c_k(2) * b + a0 * c
    ok = ok and b == degree2_perpetuant(4)
    rep = discriminant_decomposable_check()
    ok = ok and rep.identity_holds and rep.in_limit_decomposables
    ok = ok and rep.indecomposable_in_cubic_algebra
    report(ok, "criterion 6: degree-3/4 identities and discriminant membership")


def test_criterion_7_degree_two_line(report):
    ok = True
    for g in range(1, 21):
        kernel = kernel_oracle(2, g)
        if g % 2:
            ok = ok and kernel == []
        else:
            p = degree2_perpetuant(g)
            ok = ok and derivation_D(p).is_zero()
            equal, ra, rb, ru = span_equal(kernel, [p])
            ok = ok and equal and ra == 1
    report(ok, "criterion 7: unique degree-2 perpetuant in every even weight <= 20")


def test_criterion_8_negative_control(report):
    ok = True
    for n in (3, 4):
        stroh = stroh_series(n, 25)
        base = threshold(n).k
        for i in range(len(base)):
            bumped = tuple(k + (1 if j == i else 0) for j, k in enumerate(base))
            first_bad = None
            for g in range(26):
                if index_count(n, g, bumped) != stroh[g]:
                    first_bad = g
                    break
            ok = ok and first_bad is not None
            ok = ok and index_count(n, first_bad, bumped) < stroh[first_bad]
    report(ok, "criterion 8: perturbing the threshold breaks the count at the first affected weight")
