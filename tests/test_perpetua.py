"""Perpetuants: the dimension series, the threshold filter, decomposable
spans and the direct-sum certificates."""

import json

import pytest
from certificate_reference import full_width_certificate

from perpetuants import (
    ExponentVector,
    Poly,
    decomposable_span,
    degree2_perpetuant,
    derivation_D,
    dim_series,
    kernel_oracle,
    perpetuant_basis,
    stroh_series,
    threshold,
    u_basis,
    verify_complement,
)
from perpetuants.basis import invariant_rows, span_rank
from perpetuants.perpetua import ThresholdVector, decomposable_rows, index_count
from perpetuants import basis as basis_mod
from perpetuants import linalg, perpetua, symfunc
from perpetuants.symfunc import alpha_invariant_rows, transition_alpha
from perpetuants.umbral import lowering_matrix, monomial_index


def a(i):
    return Poly.variable("a", i)


# ------------------------------------------------------------------ the series


def test_stroh_n3_is_shifted_dimension_series():
    s = stroh_series(3, 9)
    assert s.coefficients[3:] == [1, 0, 1, 1, 1, 1, 2]
    assert s.coefficients[:3] == [0, 0, 0]


def test_stroh_n4_window():
    s = stroh_series(4, 11)
    assert s.coefficients[7:] == [1, 0, 1, 1, 2]


def test_stroh_n2():
    s = stroh_series(2, 10)
    assert s.coefficients == [0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_stroh_n1():
    assert stroh_series(1, 3).coefficients == [1, 0, 0, 0]


@pytest.mark.parametrize("n", range(3, 9))
def test_stroh_first_weight_is_decided_at_the_boundary(n):
    # the first perpetuant has weight 2^(n-1) - 1; the weights below it
    # are decided without the power, and huge n costs nothing
    first = 2 ** (n - 1) - 1
    assert stroh_series(n, first - 1).coefficients == [0] * first
    assert stroh_series(n, first).coefficients == [0] * first + [1]
    assert stroh_series(10**12, first).coefficients == [0] * (first + 1)


# ------------------------------------------------------------------- threshold


def test_threshold_values():
    assert threshold(3).k == (0, 1)
    assert threshold(3).weight() == 3
    assert threshold(4).k == (0, 1, 1)
    assert threshold(4).weight() == 7
    assert threshold(5).k == (0, 2, 1, 1)
    assert threshold(5).weight() == 15
    assert threshold(6).k == (0, 4, 2, 1, 1)
    assert threshold(6).weight() == 31


def test_threshold_needs_three():
    with pytest.raises(ValueError):
        threshold(2)


def test_threshold_is_cached_per_degree():
    assert threshold(7) is threshold(7)


@pytest.mark.parametrize("n", [3, 6, 40])
def test_threshold_checks_the_lemma_without_expansion(monkeypatch, n):
    # the reduced threshold e-monomial's leading exponent is compared with
    # the one read off q_n's forms; a wrong forms count must be refused
    def wrong_lead(n):
        return 1, ExponentVector({1: 2 ** (n - 2) + 1})

    monkeypatch.setattr(perpetua, "q_n_leading_monomial", wrong_lead)
    threshold.cache_clear()
    try:
        wanted = ", ".join(str(2**i) for i in range(n - 2, -1, -1))
        found = ", ".join([str(2 ** (n - 2) + 1)] + ["0"] * (n - 2))
        with pytest.raises(AssertionError) as raised:
            threshold(n)
        message = str(raised.value)
        assert f"leads with ({wanted})" in message
        assert f"q_{n} with ({found})" in message
    finally:
        threshold.cache_clear()


def test_threshold_domination():
    t = threshold(3)
    assert t.dominates((0, 1))
    assert t.dominates((2, 3))
    assert not t.dominates((5, 0))


# ------------------------------------------------------------ perpetuant basis


def test_perpetuant_basis_3_5():
    basis = perpetuant_basis(3, 5)
    assert [u.k for u in basis] == [(1, 1)]


def test_perpetuant_basis_4_8_is_empty():
    assert perpetuant_basis(4, 8) == []
    assert stroh_series(4, 8)[8] == 0


def test_perpetuant_basis_below_threshold_weight():
    assert perpetuant_basis(3, 2) == []


def test_perpetuant_basis_rejects_small_n():
    with pytest.raises(ValueError):
        perpetuant_basis(2, 4)


# ---------------------------------------------------------- degree-2 perpetuants


def test_degree2_g2():
    assert degree2_perpetuant(2) == 2 * a(0) * a(2) - a(1) ** 2


def test_degree2_g4():
    assert degree2_perpetuant(4) == 2 * a(0) * a(4) - 2 * a(1) * a(3) + a(2) ** 2


def test_degree2_g6():
    p = degree2_perpetuant(6)
    assert p == 2 * a(0) * a(6) - 2 * a(1) * a(5) + 2 * a(2) * a(4) - a(3) ** 2
    assert derivation_D(p).is_zero()


def test_degree2_rejects_odd_or_zero():
    for g in (0, 3, 7):
        with pytest.raises(ValueError):
            degree2_perpetuant(g)


def test_degree2_spans_the_whole_kernel():
    for g in range(2, 13, 2):
        kernel = kernel_oracle(2, g)
        assert len(kernel) == 1
        from perpetuants import span_equal

        equal, *_ = span_equal(kernel, [degree2_perpetuant(g)])
        assert equal
    for g in range(1, 13, 2):
        assert kernel_oracle(2, g) == []


def test_degree2_is_never_decomposable():
    # products of positive-weight invariants of degrees summing to 2 need
    # S_{1,w} with w > 0, which is zero
    assert span_rank(decomposable_span(2, 2)) == 0


# ----------------------------------------------------------- decomposable spans


def test_decomposable_dims():
    assert span_rank(decomposable_span(3, 7)) == 0
    assert span_rank(decomposable_span(4, 6)) == 3
    assert span_rank(decomposable_span(2, 2)) == 0


def _decomposable_span_by_poly(n, g):
    """The decomposable products as `Poly` products of the `u_basis`
    elements, the route that `decomposable_rows` replaced."""
    out = []
    for h in range(1, n // 2 + 1):
        for j in range(g + 1):
            left = u_basis(h, j)
            if not left:
                continue
            right = u_basis(n - h, g - j)
            for u in left:
                for v in right:
                    out.append(u.poly * v.poly)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_decomposable_rows_are_the_poly_products(n):
    for g in range(15):
        index = monomial_index(n, g)
        products = _decomposable_span_by_poly(n, g)
        assert decomposable_rows(n, g) == [index.row(p) for p in products]
        assert decomposable_span(n, g) == products


# -------------------------------------------------------------- certificates


def test_certificate_3_7():
    cert = verify_complement(3, 7)
    assert (cert.dim_total, cert.dim_decomposable, cert.dim_perpetuant) == (1, 0, 1)
    assert cert.direct_sum_ok and cert.stroh_coefficient == 1


def test_certificate_4_6():
    cert = verify_complement(4, 6)
    assert (cert.dim_total, cert.dim_decomposable, cert.dim_perpetuant) == (3, 3, 0)
    assert cert.direct_sum_ok and cert.stroh_coefficient == 0


def test_certificate_3_3():
    cert = verify_complement(3, 3)
    assert (cert.dim_total, cert.dim_decomposable, cert.dim_perpetuant) == (1, 0, 1)
    assert cert.direct_sum_ok


def _start_cold():
    # so that no cached step is skipped
    transition_alpha.cache_clear()
    symfunc._entries.cache_clear()
    monomial_index.cache_clear()


def test_certificate_builds_no_poly(monkeypatch):
    def refuse(self, family, terms=()):
        raise AssertionError("the certificate must not build a Poly")

    _start_cold()
    monkeypatch.setattr(Poly, "__init__", refuse)
    cert = verify_complement(5, 14)
    monkeypatch.undo()
    assert str(cert) == "(n=5, g=14) total=13 dec=13 perp=0 stroh=0 ok"


def test_certificate_builds_no_beta(monkeypatch):
    def refuse(*args):
        raise AssertionError("the certificate must not build beta")

    entries = symfunc._entries

    def alpha_only(n, g, direction, zeros):
        if direction == "beta":
            refuse()
        return entries(n, g, direction, zeros)

    _start_cold()
    monkeypatch.setattr(symfunc, "transition_beta", refuse)
    monkeypatch.setattr(symfunc, "_entries", alpha_only)
    cert = verify_complement(5, 14)
    monkeypatch.undo()
    assert str(cert) == "(n=5, g=14) total=13 dec=13 perp=0 stroh=0 ok"


def test_indices_are_chosen_before_alpha_or_threshold_is_built(monkeypatch):
    # below the threshold weight 2^(n-1) - 1 nothing is selected, so
    # neither the threshold nor the alpha of the cell is built
    def refuse_threshold(n):
        raise AssertionError("the threshold must not be built")

    def alpha_below_degree_5(n, g):
        if n == 5:
            raise AssertionError("alpha(5, g) must not be built")
        return alpha_invariant_rows(n, g)

    _start_cold()
    monkeypatch.setattr(perpetua, "threshold", refuse_threshold)
    monkeypatch.setattr(basis_mod, "alpha_invariant_rows", alpha_below_degree_5)
    cert = verify_complement(5, 14)
    assert str(cert) == "(n=5, g=14) total=13 dec=13 perp=0 stroh=0 ok"
    assert perpetuant_basis(5, 14) == []
    assert perpetuant_basis(30000, 3) == []
    # above it, alpha(5, 16) is not built either: no index of weight 16
    # dominates the threshold
    monkeypatch.setattr(perpetua, "threshold", threshold)
    cert = verify_complement(5, 16)
    assert str(cert) == "(n=5, g=16) total=17 dec=17 perp=0 stroh=0 ok"
    assert perpetuant_basis(5, 16) == []


def _record_alpha_builds(monkeypatch):
    """The set of (n, g) whose alpha or beta entries are asked for from
    now on, starting from empty caches."""
    built = set()
    entries = symfunc._entries

    def recorded(n, g, direction, zeros):
        built.add((n, g))
        return entries(n, g, direction, zeros)

    _start_cold()
    monkeypatch.setattr(symfunc, "_entries", recorded)
    return built


def test_certificate_builds_no_alpha_above_the_quotient_weight(monkeypatch):
    # (5,20) reads alpha(5,15) and factor cells of weight at most 15
    built = _record_alpha_builds(monkeypatch)
    cert = verify_complement(5, 20)
    assert str(cert) == "(n=5, g=20) total=28 dec=26 perp=2 stroh=2 ok"
    assert (5, 15) in built and (5, 20) not in built
    assert max(g for _, g in built) == 15


@pytest.mark.parametrize("n,g", [(12, 11), (40, 14), (1000, 3)])
def test_certificate_below_degree_builds_no_alpha(monkeypatch, n, g):
    # with g < n every monomial holds a_0: S_{n,g} = a_0 * S_{n-1,g}
    built = _record_alpha_builds(monkeypatch)
    cert = verify_complement(n, g)
    assert built == set()
    assert cert.direct_sum_ok
    assert cert.dim_decomposable == cert.dim_total == dim_series(n, g)[g]
    assert cert.dim_perpetuant == 0


@pytest.mark.parametrize("n,gmax", [(2, 20), (3, 20), (4, 20), (5, 20), (6, 20), (7, 18)])
def test_a0_quotient_of_each_u_k_is_the_raised_lower_u(n, gmax):
    # pi drops the terms with a_0 and sigma maps a_i to a_(i+1): pi(U_k(n, g))
    # = sigma(U_(k - eps_n)(n, g - n)), and 0 when k_n = 0
    for g in range(gmax + 1):
        parts = monomial_index(n, g).parts
        lower, position = {}, {}
        if g >= n:
            lower = dict(invariant_rows(n, g - n))
            position = monomial_index(n, g - n).parts_position
        raised = 0
        for k, row in invariant_rows(n, g):
            image = {
                position[tuple(p - 1 for p in parts[j] if p > 1)]: x
                for j, x in row.items()
                if len(parts[j]) == n
            }
            if k[-1]:
                raised += 1
                assert image == lower[k[:-1] + (k[-1] - 1,)], (n, g, k)
            else:
                assert image == {}, (n, g, k)
        assert raised == len(lower)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_chosen_alpha_rows_are_the_chosen_invariant_rows(n):
    # the perpetuant basis is the threshold filter of the invariant rows
    t = threshold(n)
    for g in range(25):
        index = monomial_index(n, g)
        expected = [(k[1:], row) for k, row in invariant_rows(n, g) if t.dominates(k[1:])]
        assert [(u.k, index.row(u.poly)) for u in perpetuant_basis(n, g)] == expected


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_quotient_certificate_equals_the_full_width_one(n):
    for g in range(25):
        cert, reference = verify_complement(n, g), full_width_certificate(n, g)
        assert str(cert) == str(reference)
        assert cert.to_json() == reference.to_json()
        assert cert.direct_sum_ok


@pytest.mark.slow
def test_quotient_certificate_equals_the_full_width_one_at_6_31():
    cert, reference = verify_complement(6, 31), full_width_certificate(6, 31)
    assert str(cert) == str(reference) == "(n=6, g=31) total=154 dec=153 perp=1 stroh=1 ok"
    assert cert.to_json() == reference.to_json()


@pytest.mark.slow
def test_the_degree_6_band_from_31_to_36():
    # one pass over the band, sharing its caches; outside criterion 1's grid
    assert [str(verify_complement(6, g)) for g in range(31, 37)] == [
        "(n=6, g=31) total=154 dec=153 perp=1 stroh=1 ok",
        "(n=6, g=32) total=180 dec=180 perp=0 stroh=0 ok",
        "(n=6, g=33) total=189 dec=188 perp=1 stroh=1 ok",
        "(n=6, g=34) total=216 dec=215 perp=1 stroh=1 ok",
        "(n=6, g=35) total=227 dec=225 perp=2 stroh=2 ok",
        "(n=6, g=36) total=260 dec=258 perp=2 stroh=2 ok",
    ]


def test_a_selected_row_in_the_product_span_fails(monkeypatch):
    # the selected U_k of (4,12) read as a quotient product lies in the
    # decomposable span, so the union falls one short
    product = perpetua._products(4, 8, 2)[0]
    (chosen,) = perpetua._selected_indices(4, 12)
    lowered = chosen[:-1] + (chosen[-1] - 1,)
    true_rows = perpetua.invariant_rows

    def with_product(n, g):
        # only the lowered row of (4,8) is replaced; the factor cells that
        # _products reads keep their true rows
        return [(k, product if (n, g, k) == (4, 8, lowered) else row) for k, row in true_rows(n, g)]

    monkeypatch.setattr(perpetua, "invariant_rows", with_product)
    cert = verify_complement(4, 12)
    assert not cert.direct_sum_ok
    assert (cert.dim_perpetuant, cert.stroh_coefficient) == (1, 1)
    assert cert.dim_decomposable + cert.dim_perpetuant == cert.dim_total


@pytest.mark.parametrize("g,cell", [(3, (3, 3)), (12, (3, 12)), (12, (4, 8))])
def test_a_wrong_kernel_dimension_fails(monkeypatch, g, cell):
    # dim S_{3,g} or dim S_{4,g-4} read one too high breaks the reduction
    # total = lower + upper; the upper one is checked nowhere else
    kernel_dim = perpetua._kernel_dim
    monkeypatch.setattr(
        perpetua, "_kernel_dim", lambda n, w: kernel_dim(n, w) + ((n, w) == cell)
    )
    cert = verify_complement(4, g)
    assert not cert.direct_sum_ok
    assert cert.dim_total == dim_series(4, g)[g]


@pytest.mark.parametrize("n", range(1, 8))
def test_kernel_dimension_is_the_eliminated_corank_of_d(n):
    # the row count of D stands for its rank; an elimination agrees
    for g in range(15):
        width = len(monomial_index(n, g).parts)
        rank = linalg.rank(lowering_matrix(n, g), width)
        assert perpetua._kernel_dim(n, g) == width - rank == dim_series(n, g)[g]


@pytest.mark.parametrize(
    "plant,message",
    [
        (lambda D: D[:4] + [D[5], D[4]] + D[6:], r"^row 5 of D at \(5,10\) does not lead"),
        (lambda D: D[:4] + [{c: 2 * x for c, x in D[4].items()}] + D[5:], r"^row 4 of D "),
        (lambda D: D[:4] + [{}] + D[5:], r"^row 4 of D "),
        # still echelon, but one monomial with h1 != h2 is left without a pivot
        (lambda D: D[:-1], r"^the pivot columns of D at \(5,10\) are not the monomials with h1 != h2$"),
    ],
    ids=["swapped", "pivot-2", "zero-row", "dropped-row"],
)
def test_kernel_dimension_refuses_a_d_that_is_not_unit_echelon(monkeypatch, plant, message):
    lowering = perpetua.lowering_matrix

    def planted(n, g):
        return plant(lowering(n, g)) if (n, g) == (5, 10) else lowering(n, g)

    perpetua._kernel_dim.cache_clear()
    monkeypatch.setattr(perpetua, "lowering_matrix", planted)
    with pytest.raises(AssertionError, match=message):
        perpetua._kernel_dim(5, 10)


def test_certificate_json_schema():
    data = json.loads(verify_complement(4, 6).to_json())
    assert data == {
        "n": 4,
        "g": 6,
        "dim_total": 3,
        "dim_dec": 3,
        "dim_perp": 0,
        "stroh": 0,
        "ok": True,
    }


@pytest.mark.parametrize("n,gmax", [(3, 12), (4, 12)])
def test_certificate_grid(n, gmax):
    for g in range(gmax + 1):
        assert verify_complement(n, g).direct_sum_ok


@pytest.mark.parametrize("n,gmax", [(3, 12), (4, 12)])
def test_decomposable_plus_stroh_counts_everything(n, gmax):
    dims = dim_series(n, gmax)
    stroh = stroh_series(n, gmax)
    for g in range(gmax + 1):
        cert = verify_complement(n, g)
        assert cert.dim_decomposable + stroh[g] == dims[g]


# ---------------------------------------------------------- counting identity


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_index_count_matches_stroh(n):
    # the Stroh series, and for the threshold and each one-slot bump t of
    # weight w, the count of all indices (k2,...,kn) of weight g - w
    stroh = stroh_series(n, 24)
    base = threshold(n).k
    bumps = [base] + [
        tuple(k + (j == i) for j, k in enumerate(base)) for i in range(len(base))
    ]
    for g in range(25):
        assert index_count(n, g, base) == stroh[g]
        for t in bumps:
            w = ThresholdVector(n, t).weight()
            expected = dim_series(n, g - w)[g - w] if g >= w else 0
            assert index_count(n, g, t) == expected


@pytest.mark.parametrize("n", [3, 4])
def test_perturbed_threshold_undercounts(n):
    # negative control: raising any slot of the threshold strictly loses
    # basis elements at the first affected weight
    stroh = stroh_series(n, 25)
    base = threshold(n).k
    for i in range(len(base)):
        bumped = tuple(k + (1 if j == i else 0) for j, k in enumerate(base))
        first_bad = None
        for g in range(26):
            if index_count(n, g, bumped) != stroh[g]:
                first_bad = g
                break
        assert first_bad is not None
        assert index_count(n, first_bad, bumped) < stroh[first_bad]
