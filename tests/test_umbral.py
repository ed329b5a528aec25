"""Umbral side: the evaluation map E, the lowering derivation, the
translation action, and the potenziante expansion with its identities."""

import json
import random
from fractions import Fraction

import pytest

from perpetuants import (
    ExponentVector,
    Poly,
    UmbralMonomial,
    UmbralPoly,
    derivation_D,
    is_translation_invariant,
    potenziante,
    translate,
    umbral_E,
)
from perpetuants.symfunc import elementary
from perpetuants.umbral import (
    a_monomial_for,
    monomial_index,
    potenziante_tensor,
    tensor_apply_D,
    tensor_equal,
    tensor_mul,
    tensor_scale_L,
)


def a(i):
    return Poly.variable("a", i)


# -------------------------------------------------------------- evaluation E


def test_E_basic_monomial():
    m = UmbralMonomial((3, 2, 0, 0, 0), 5)
    assert umbral_E(m) == a(0) ** 3 * a(2) * a(3)


def test_E_square_pair():
    assert umbral_E(UmbralMonomial((2, 2), 2)) == a(2) ** 2


def test_E_of_one():
    assert umbral_E(UmbralMonomial((0, 0, 0), 3)) == a(0) ** 3


def test_E_is_linear():
    u = UmbralPoly(2, [((1, 0), 2), ((0, 1), -1)])
    assert umbral_E(u) == 2 * a(0) * a(1) - a(0) * a(1)


def test_umbral_poly_drops_cancelled_terms():
    u = UmbralPoly(2, [((1, 0), 2), ((0, 1), Fraction(1, 2)), ((1, 0), -2)])
    assert u.terms == {(0, 1): Fraction(1, 2)}
    assert (u + UmbralPoly(2, [((0, 1), Fraction(-1, 2))])).terms == {}


def test_umbral_monomial_validation():
    with pytest.raises(ValueError):
        UmbralMonomial((1, 2), 3)
    with pytest.raises(ValueError):
        UmbralMonomial((-1, 0), 2)


def test_divided_power_product():
    # x^[1] * x^[1] = 2 x^[2] on one umbra
    u = UmbralPoly.monomial((1,), 1)
    sq = u * u
    assert sq.terms == {(2,): 2}


def test_umbral_partial_lowers():
    u = UmbralPoly.monomial((3, 1), 2)
    assert u.partial(1).terms == {(2, 1): 1}
    assert u.partial(2).terms == {(3, 0): 1}
    assert u.partial(2).partial(2).terms == {}


@pytest.mark.parametrize("r", [(-1, 2), (1.5, 0)])
def test_umbral_exponents_must_be_nonnegative_integers(r):
    # E trusts the exponents it is given, so the umbral side checks them
    with pytest.raises(ValueError, match="nonnegative integers"):
        UmbralPoly(2, [(r, 1)])
    with pytest.raises(ValueError, match="nonnegative integers"):
        UmbralMonomial(r, 2)
    with pytest.raises(ValueError, match="nonnegative integers"):
        a_monomial_for(r, 2)


def test_monomials_of_a_huge_degree_are_built_without_padding():
    # a_0's exponent is counted, not padded out to n entries
    n = 10**14
    assert monomial_index(n, 2).exponents == (
        ExponentVector({0: n - 1, 2: 1}),
        ExponentVector({0: n - 2, 1: 2}),
    )
    assert a_monomial_for((2, 1), n) == Poly.monomial("a", ExponentVector({0: n - 2, 1: 1, 2: 1}))


def test_a_monomial_for_rejects_more_parts_than_variables():
    with pytest.raises(ValueError, match="more parts than variables"):
        a_monomial_for((3, 2, 1), 2)


# -------------------------------------------------------------- derivation D


def test_D_kills_a0():
    assert derivation_D(a(0)).is_zero()


def test_D_lowers_index():
    assert derivation_D(a(3)) == a(2)


def test_D_kills_quadratic_invariant():
    assert derivation_D(a(1) ** 2 - 2 * a(0) * a(2)).is_zero()


def test_D_lowers_bidegree():
    p = a(1) * a(3) ** 2  # degree 3, weight 7
    image = derivation_D(p)
    assert tuple(image.bidegree()) == (3, 6)


# ---------------------------------------------------------------- translation


def test_translate_a1():
    t = translate(a(1))
    assert set(t) == {0, 1}
    assert t[0] == a(1)
    assert t[1] == a(0)


def test_translate_a2():
    t = translate(a(2))
    assert t[0] == a(2)
    assert t[1] == a(1)
    assert t[2] == a(0).scale(Fraction(1, 2))


def test_translate_invariant_quadratic():
    p = a(1) ** 2 - 2 * a(0) * a(2)
    assert translate(p) == {0: p}
    assert is_translation_invariant(p)


def test_translate_t1_coefficient_is_D():
    p = a(1) * a(2) + 5 * a(0) * a(3)
    t = translate(p)
    assert t[1] == derivation_D(p)


# ------------------------------------------------------- commutation with E


def random_umbral(rng, n):
    terms = []
    for _ in range(rng.randint(1, 4)):
        r = tuple(rng.randint(0, 5) for _ in range(n))
        terms.append((r, rng.randint(-5, 5)))
    return UmbralPoly(n, terms)


def umbral_sum_of_partials(u):
    out = UmbralPoly(u.n)
    for i in range(1, u.n + 1):
        out = out + u.partial(i)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_E_intertwines_partials_with_D(seed):
    rng = random.Random(seed)
    for _ in range(10):
        n = rng.randint(1, 4)
        u = random_umbral(rng, n)
        assert umbral_E(umbral_sum_of_partials(u)) == derivation_D(umbral_E(u))


def test_E_multiplicative_on_disjoint_umbrae():
    rng = random.Random(7)
    for _ in range(20):
        nl, nr = rng.randint(1, 3), rng.randint(1, 3)
        left = random_umbral(rng, nl)
        right = random_umbral(rng, nr)
        # embed on disjoint umbra sets, then multiply
        n = nl + nr
        lift_l = UmbralPoly(n, {r + (0,) * nr: c for r, c in left.terms.items()})
        lift_r = UmbralPoly(n, {(0,) * nl + r: c for r, c in right.terms.items()})
        assert umbral_E(lift_l * lift_r) == umbral_E(left) * umbral_E(right)


# ---------------------------------------------------------------- potenziante


def test_potenziante_3_3_display():
    pe = potenziante(3, 3)
    assert str(pe) == "m_{3,0,0}*a0^2*a3 + m_{2,1,0}*a0*a1*a2 + m_{1,1,1}*a1^3"


def test_potenziante_3_2_display():
    pe = potenziante(3, 2)
    assert str(pe) == "m_{2,0,0}*a0^2*a2 + m_{1,1,0}*a0*a1^2"


def test_potenziante_one_umbra():
    pe = potenziante(1, 5)
    assert len(pe.rows) == 1
    h, m, amon = pe.rows[0]
    assert h.parts == (5,)
    assert amon == a(5)


def test_potenziante_e_rows_match_m_rows():
    # sum_h m_h (x) a_h == sum_k e^k (x) U~_k as one tensor
    for n, g in [(2, 4), (3, 3), (3, 4)]:
        pe = potenziante(n, g)
        lhs = {}
        for h, m, amon in pe.rows:
            aev = amon.terms()[0][0]
            lhs[aev] = lhs.get(aev, Poly.zero("L")) + m
        rhs = {}
        from perpetuants.symfunc import e_monomial

        for k, u in pe.e_rows:
            ek = e_monomial(k, n)
            for aev, c in u.terms():
                rhs[aev] = rhs.get(aev, Poly.zero("L")) + ek.scale(c)
        assert tensor_equal(lhs, rhs)


def test_potenziante_tensor_matches_rows():
    pe = potenziante(3, 3)
    t = potenziante_tensor(3, 3)
    for h, m, amon in pe.rows:
        assert t[amon.terms()[0][0]] == m


def test_potenziante_json_schema():
    data = json.loads(potenziante(3, 3).to_json())
    assert data["n"] == 3 and data["g"] == 3
    assert data["rows"][0] == {"h": [3, 0, 0], "a": "a0^2*a3"}
    assert data["e_rows"][-1]["k"] == [0, 0, 1]


# ------------------------------------------------------------- the identities


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lowering_recursion_on_U_tilde(n):
    for g in range(1, 9):
        lut = dict(potenziante(n, g - 1).e_rows)
        for k, u in potenziante(n, g).e_rows:
            d = derivation_D(u)
            if k[0] == 0:
                assert d.is_zero()
            else:
                km = (k[0] - 1,) + tuple(k[1:])
                assert d == lut[km]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_D_on_potenziante_multiplies_by_e1(n):
    for g in range(1, 9):
        lhs = tensor_apply_D(potenziante_tensor(n, g))
        rhs = tensor_scale_L(potenziante_tensor(n, g - 1), elementary(1, n))
        assert tensor_equal(lhs, rhs)


@pytest.mark.parametrize("n,h,g", [(3, 1, 4), (4, 2, 5)])
def test_potenziante_splits_over_variable_groups(n, h, g):
    full = potenziante_tensor(n, g)
    acc = {}
    for j in range(g + 1):
        left = potenziante_tensor(h, j, list(range(1, h + 1)))
        right = potenziante_tensor(n - h, g - j, list(range(h + 1, n + 1)))
        for aev, lp in tensor_mul(left, right).items():
            acc[aev] = acc.get(aev, Poly.zero("L")) + lp
    assert tensor_equal(full, acc)
