"""Exact sparse polynomial core: arithmetic, bigrading, substitution,
parsing and serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perpetuants import BiDegreeError, ExponentVector, FamilyMismatchError, Poly


def a(i):
    return Poly.variable("a", i)


def L(i):
    return Poly.variable("L", i)


# ---------------------------------------------------------------- exponents


def test_exponent_vector_drops_zeros():
    ev = ExponentVector({0: 2, 3: 0, 5: 1})
    assert ev.entries == ((0, 2), (5, 1))
    assert ev.degree() == 3
    assert ev.weight() == 5


def test_exponent_vector_rejects_negative():
    with pytest.raises(ValueError):
        ExponentVector({1: -1})


def test_exponent_vector_lex_order():
    # r < s iff r_k < s_k at the first index where they differ
    r = ExponentVector({1: 2, 2: 1})
    s = ExponentVector({1: 2, 2: 2})
    assert r.lex_less(s)
    assert not s.lex_less(r)
    assert not r.lex_less(r)


@given(st.lists(st.integers(0, 3), max_size=6), st.lists(st.integers(0, 3), max_size=6))
@settings(max_examples=200, deadline=None)
def test_exponent_vector_lex_less_is_sequence_order(r, s):
    # the definition: compare the exponent sequences read from index 0 on
    r_ev = ExponentVector(dict(enumerate(r)))
    s_ev = ExponentVector(dict(enumerate(s)))
    length = max(len(r), len(s))
    assert r_ev.lex_less(s_ev) == (r_ev.as_tuple(length) < s_ev.as_tuple(length))


def test_exponent_vector_as_tuple():
    ev = ExponentVector({1: 2, 3: 1})
    assert ev.as_tuple(3, first_index=1) == (2, 0, 1)
    with pytest.raises(ValueError):
        ev.as_tuple(2, first_index=1)


def test_exponent_vector_product_merges():
    ev = ExponentVector({0: 1}) * ExponentVector({0: 1, 2: 3})
    assert ev == ExponentVector({0: 2, 2: 3})


def test_exponent_vector_is_its_tuple_of_pairs():
    # the key hashes and compares in C, as the plain tuple of its pairs
    assert ExponentVector.__hash__ is tuple.__hash__
    assert ExponentVector.__eq__ is tuple.__eq__
    ev = ExponentVector({3: 1, 0: 2})
    assert ev == ((0, 2), (3, 1)) and hash(ev) == hash(((0, 2), (3, 1)))
    assert len(ev) == 2 and not hasattr(ev, "__dict__")


def _same_key(ev, expected):
    assert type(ev) is ExponentVector
    assert ev == expected and hash(ev) == hash(expected)
    assert ev.entries == expected.entries


exponent_maps = st.dictionaries(st.integers(0, 6), st.integers(0, 4), max_size=5)


@given(exponent_maps, exponent_maps)
@settings(max_examples=200, deadline=None)
def test_product_key_equals_validated_key(r, s):
    product = {i: r.get(i, 0) + s.get(i, 0) for i in r.keys() | s.keys()}
    _same_key(ExponentVector(r) * ExponentVector(s), ExponentVector(product))


@given(st.lists(st.integers(0, 8), max_size=7))
@settings(max_examples=200, deadline=None)
def test_a_exponent_key_equals_validated_key(parts):
    from perpetuants.umbral import _a_exponent

    counts = {x: parts.count(x) for x in parts}
    _same_key(_a_exponent(parts), ExponentVector(counts))


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n // 2))))
@settings(max_examples=20, deadline=None)
def test_expand_forms_keys_equal_validated_keys(nh):
    from perpetuants.symfunc import p_h

    for ev in p_h(*nh).exponents():
        _same_key(ev, ExponentVector(dict(ev)))


# --------------------------------------------------------------- arithmetic


def test_additive_inverse_gives_empty_term_map():
    p = a(1) + (-a(1))
    assert p.is_zero()
    assert len(p) == 0


def test_difference_of_squares():
    assert (a(0) + a(1)) * (a(0) - a(1)) == a(0) ** 2 - a(1) ** 2


def test_lambda_expansion():
    assert (L(1) + L(2)) * (L(1) * L(2)) == L(1) ** 2 * L(2) + L(1) * L(2) ** 2


def test_family_mismatch_is_typed():
    with pytest.raises(FamilyMismatchError):
        a(1) + L(1)


def test_l_variables_start_at_one():
    with pytest.raises(ValueError):
        Poly("L", [(ExponentVector({0: 1}), 1)])
    # a monomial whose coefficients cancel, or are zero, is still checked
    l0, l1 = ExponentVector({0: 1}), ExponentVector({1: 1})
    for pairs in ([(l0, 1), (l1, 2), (l0, -1)], [(l1, 2), (l0, 0)]):
        with pytest.raises(ValueError):
            Poly("L", pairs)


def test_scalar_arithmetic():
    p = a(2).scale(Fraction(1, 3)) * 3
    assert p == a(2)
    assert (2 * a(0) - a(0) - a(0)).is_zero()


# --------------------------------------------------------- coefficient types


def test_pipeline_coefficients_are_ints():
    from perpetuants import decomposable_span, kernel_oracle, q_n, u_basis

    polys = (
        [u.poly for u in u_basis(5, 15)]
        + decomposable_span(5, 15)
        + kernel_oracle(5, 15)
        + [q_n(5)]
    )
    for p in polys:
        for ev in p.exponents():
            assert type(p.coefficient(ev)) is int, (p, ev)


def test_integral_scale_and_sum_store_ints():
    half = a(1).scale(Fraction(1, 2))
    for p in (half * 2, half + half):
        assert type(p.coefficient(ExponentVector({1: 1}))) is int


def test_float_coefficient_converts_exactly():
    c = Poly.constant("a", 0.5).coefficient(ExponentVector())
    assert type(c) is Fraction and c == Fraction(1, 2)


def test_integral_fraction_equals_int():
    p, q = Poly.constant("a", Fraction(3)), Poly.constant("a", 3)
    assert p == q and hash(p) == hash(q)
    assert type(p.coefficient(ExponentVector())) is int


MONOMIALS = [ExponentVector(e) for e in ({}, {1: 1}, {1: 2, 3: 1}, {2: 4})]


@st.composite
def term_streams(draw):
    """Shuffled (monomial, coefficient) pairs with repeats, exact
    cancellations and Fraction halves."""
    halves = st.integers(-4, 4).map(lambda x: Fraction(x, 2))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(MONOMIALS), st.integers(-4, 4) | halves),
            max_size=12,
        )
    )
    if pairs:
        cancelled = draw(st.lists(st.sampled_from(pairs), max_size=4))
        pairs += [(ev, -c) for ev, c in cancelled]
    return draw(st.permutations(pairs))


@given(st.sampled_from(["a", "L"]), term_streams())
@settings(max_examples=200, deadline=None)
def test_constructor_sums_repeated_monomials(family, pairs):
    reference = {}
    for ev, c in pairs:
        reference[ev] = reference.get(ev, 0) + c
    p = Poly(family, pairs)
    assert len(p) == sum(1 for s in reference.values() if s)
    for ev, s in reference.items():
        c = p.coefficient(ev)
        assert c == s
        assert type(c) is (int if s.denominator == 1 else Fraction)


DICT_KEYS = MONOMIALS + [ExponentVector({0: 1}), ExponentVector({0: 2, 2: 1})]


@st.composite
def term_dicts(draw):
    """A dict of distinct monomials, some with index 0, as ExponentVectors
    or plain tuples of pairs, to zero, int, Fraction or float coefficients."""
    keys = draw(st.lists(st.sampled_from(DICT_KEYS), unique=True, max_size=len(DICT_KEYS)))
    values = st.integers(-4, 4) | st.integers(-4, 4).map(lambda x: Fraction(x, 3)) | st.sampled_from([0.0, -1.5, 2.0])
    return {
        (tuple(ev) if draw(st.booleans()) else ev): draw(values)
        for ev in keys
    }


@given(st.sampled_from(["a", "L"]), term_dicts())
@settings(max_examples=200, deadline=None)
def test_a_dict_builds_the_summed_poly(family, terms):
    # a summed dict of ExponentVector keys and nonzero ints is taken as it
    # is; any other dict is summed pair by pair, with the same result, and
    # an index 0 in family "L" is refused either way
    if family == "L" and any(ev and ev[0][0] == 0 for ev in terms):
        for given_terms in (terms, list(terms.items())):
            with pytest.raises(ValueError, match="L-variables are indexed from 1"):
                Poly(family, given_terms)
        return
    p = Poly(family, terms)
    reference = Poly(family, list(terms.items()))
    assert p == reference
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for _, c in p.items())
    assert all(type(ev) is ExponentVector for ev in p.exponents())
    terms[ExponentVector({5: 1})] = 7
    terms.pop(next(iter(terms)))
    assert p == reference


@pytest.mark.parametrize(
    "terms",
    [
        {ExponentVector({0: 1}): 1},
        {ExponentVector({1: 1}): 2, ExponentVector({0: 2, 3: 1}): 1},
        {ExponentVector(): 3, ExponentVector({0: 1, 1: 1}): -1},
        {((0, 1),): 1},
    ],
)
def test_a_dict_with_index_0_is_refused_in_family_L(terms):
    with pytest.raises(ValueError, match="L-variables are indexed from 1"):
        Poly("L", terms)
    assert Poly("a", terms) == Poly("a", list(terms.items()))


def test_a_summed_dict_is_copied():
    terms = {ExponentVector({1: 1}): 2, ExponentVector({2: 3}): -1}
    p = Poly("L", terms)
    terms[ExponentVector({1: 1})] = 5
    del terms[ExponentVector({2: 3})]
    assert p.coefficient(ExponentVector({1: 1})) == 2
    assert p.coefficient(ExponentVector({2: 3})) == -1


@pytest.mark.parametrize(
    "terms",
    [
        {ExponentVector({1: 1}): 0},
        {ExponentVector({1: 1}): Fraction(1, 2)},
        {((1, 1),): 1},
        {ExponentVector({0: 1}): 1},
        [(ExponentVector({1: 1}), 1)],
    ],
)
def test_in_order_refuses_what_is_not_a_summed_dict(terms):
    with pytest.raises(ValueError, match="not a summed 'L' term dict"):
        Poly._in_order("L", terms)


def test_in_order_keeps_the_dict_it_is_given():
    terms = {ExponentVector({1: 2}): 3, ExponentVector({1: 1, 2: 1}): -1}
    p = Poly._in_order("L", terms)
    assert p._terms is terms
    assert p.terms() == list(terms.items())
    assert p == Poly("L", list(terms.items()))


def test_over_keeps_a_copy_of_the_row_as_a_memo():
    exponents = (ExponentVector({0: 2}), ExponentVector({1: 1, 0: 1}), ExponentVector({2: 1}))
    row = {2: -1, 0: 3}
    p = Poly._over("a", exponents, row)
    assert p._row == (exponents, row) and p._row[1] is not row
    assert p == Poly("a", {exponents[2]: -1, exponents[0]: 3})
    kept = p.row_over(exponents)
    assert kept == row and kept is not row
    # the caller's dict stays the caller's: changing it reaches neither
    # the memo nor the terms
    row[1] = 5
    del row[2]
    assert p.row_over(exponents) == {2: -1, 0: 3}
    assert p == Poly("a", {exponents[2]: -1, exponents[0]: 3})
    # the memo is read only over that very sequence, not an equal one
    assert p.row_over(tuple(list(exponents))) is None
    assert Poly._over("a", exponents, {}).row_over(exponents) == {}


@pytest.mark.parametrize(
    "exponents,row",
    [
        ((((0, 2),), ((1, 1),)), {0: 1, 1: 2}),
        ((ExponentVector({1: 1}), ExponentVector({1: 1})), {0: 1, 1: 2}),
        ((ExponentVector({1: 1}), ExponentVector({2: 1})), {0: 1, 1: 0}),
        ((ExponentVector({1: 1}), ExponentVector({2: 1})), {0: 1, 1: Fraction(1, 2)}),
    ],
    ids=["plain-tuple-keys", "repeated-monomial", "zero", "fraction"],
)
def test_over_sums_and_keeps_no_memo_unless_the_row_is_clean(exponents, row):
    items = [(exponents[j], c) for j, c in row.items()]
    p = Poly._over("a", exponents, row)
    assert p == Poly("a", items)
    assert p._row is None and p.row_over(exponents) is None


def test_over_keeps_no_memo_of_a_negative_position():
    # exponents[-1] is the last vector, so a memo {-1: c} would name a
    # position that the term dict does not hold
    exponents = (ExponentVector({1: 1}), ExponentVector({2: 1}))
    assert Poly._over("a", exponents, {-1: 1}).row_over(exponents) is None


def test_missing_coefficient_is_int_zero():
    c = a(1).coefficient(ExponentVector({2: 1}))
    assert type(c) is int and c == 0


# ----------------------------------------------------------------- bigrading


def test_bidegree_single_monomial():
    p = Poly.monomial("a", ExponentVector({0: 2, 3: 1}))
    assert tuple(p.bidegree()) == (3, 3)


def test_bidegree_of_cubic_invariant():
    p = a(1) ** 3 - 3 * a(0) * a(1) * a(2) + 3 * a(0) ** 2 * a(3)
    assert tuple(p.bidegree()) == (3, 3)


def test_bidegree_rejects_mixed_weight():
    with pytest.raises(BiDegreeError) as exc:
        (a(0) + a(1)).bidegree()
    assert exc.value.first is not None
    assert exc.value.second is not None


def test_bidegree_rejects_zero():
    with pytest.raises(BiDegreeError):
        Poly.zero("a").bidegree()


# -------------------------------------------------------------- substitution


def test_substitute_square():
    assert (L(1) ** 2).substitute(1, -L(2)) == L(2) ** 2


def test_substitute_to_zero():
    assert (L(1) + L(2)).substitute(2, 0) == L(1)


def test_substitute_product():
    assert (L(1) * L(2)).substitute(2, -L(1) - L(3)) == -(L(1) ** 2) - L(1) * L(3)


# ------------------------------------------------------------ serialization


def test_str_canonical_order():
    p = 3 * a(0) ** 2 * a(3) - 3 * a(0) * a(1) * a(2) + a(1) ** 3
    assert str(p) == "3*a0^2*a3 - 3*a0*a1*a2 + a1^3"


def test_parse_round_trip():
    text = "3*a0^2*a3 - 3*a0*a1*a2 + a1^3"
    assert str(Poly.parse(text)) == text


def test_parse_fractions():
    p = Poly.parse("-1/2*a1^2 + a0*a2")
    assert p.coefficient(ExponentVector({1: 2})) == Fraction(-1, 2)


def test_json_round_trip():
    p = a(0) * a(2).scale(Fraction(2, 7)) - a(1) ** 2
    assert Poly.from_json(p.to_json()) == p


def test_primitive_part():
    p = 6 * a(0) * a(2) - 4 * a(1) ** 2
    q = p.primitive_part()
    assert q == 3 * a(0) * a(2) - 2 * a(1) ** 2
    # leading sign positive even when the input is negated
    assert (-p).primitive_part() == q


# ------------------------------------------------------------ property tests

coeffs = st.fractions(
    min_value=-9, max_value=9, max_denominator=6
)


@st.composite
def polys(draw, family="a"):
    nterms = draw(st.integers(0, 4))
    terms = []
    lo = 0 if family == "a" else 1
    for _ in range(nterms):
        exps = draw(
            st.dictionaries(st.integers(lo, 5), st.integers(1, 3), max_size=3)
        )
        terms.append((ExponentVector(exps), draw(coeffs)))
    return Poly(family, terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert (p - p).is_zero()


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_serialization_round_trips(p, q):
    prod = p * q
    assert Poly.from_json(prod.to_json()) == prod
    assert Poly.parse(str(prod)) == prod


def _dumps_term_dicts(p):
    # the serialiser before `to_json` wrote the text itself: one dict per
    # term, encoded by json.dumps
    terms = []
    for ev, c in p.terms():
        entry = {"c": str(c)}
        entry["e"] = {str(i): e for i, e in ev}
        terms.append(entry)
    return json.dumps({"family": p.family, "terms": terms})


@st.composite
def signed_polys(draw):
    """Either family, int and Fraction coefficients of both signs, the
    constant monomial among the exponents."""
    family = draw(st.sampled_from(["a", "L"]))
    lo = 0 if family == "a" else 1
    exps = st.dictionaries(st.integers(lo, 12), st.integers(1, 40), max_size=4)
    ints = st.integers(-(10**20), 10**20)
    fractions = st.fractions(max_denominator=10**6).filter(lambda c: c.denominator > 1)
    return Poly(family, draw(st.lists(st.tuples(exps, ints | fractions), max_size=8)))


@given(signed_polys())
@example(Poly.zero("a"))
@example(Poly.zero("L"))
@example(Poly.constant("a", -7))
@example(Poly.constant("L", Fraction(-3, 4)))
@example(Poly("L", [({}, 5), ({1: 2, 3: 1}, Fraction(1, 3)), ({2: 1}, -2)]))
@settings(max_examples=100, deadline=None)
def test_json_text_equals_the_term_dict_serialiser(p):
    text = p.to_json()
    assert text == _dumps_term_dicts(p)
    assert p.to_json_dict() == json.loads(text)
    assert Poly.from_json(text) == p


@st.composite
def bihomogeneous(draw):
    # random homogeneous-isobaric a-polynomial: fix (n, g), pick monomials
    n = draw(st.integers(1, 4))
    g = draw(st.integers(0, 6))
    from perpetuants.symfunc import partitions_at_most
    from perpetuants.umbral import a_monomial_for

    parts = partitions_at_most(g, n)
    if not parts:
        return None
    terms = Poly.zero("a")
    for h in parts:
        c = draw(coeffs)
        if c:
            terms = terms + a_monomial_for(h, n).scale(c)
    return terms


@given(bihomogeneous(), bihomogeneous())
@settings(max_examples=60, deadline=None)
def test_bidegree_multiplicative(p, q):
    if p is None or q is None or p.is_zero() or q.is_zero():
        return
    n1, g1 = tuple(p.bidegree())
    n2, g2 = tuple(q.bidegree())
    assert tuple((p * q).bidegree()) == (n1 + n2, g1 + g2)
