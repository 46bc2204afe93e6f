import random
from fractions import Fraction

import pytest

from paracr import autodetect as ad
from paracr.poly import Poly, UNIT, singular_grading
from paracr.surfaces import SurfaceJet
from paracr.singnorm import TypeData


def model_surface(m, n, grading=None, order=None):
    k = m + n
    g = grading if grading is not None else singular_grading(k)
    L = order if order is not None else 3 * k
    F = Poly.var("a", g, L) + Poly.monomial(1, g, L, b=m, x=n)
    return SurfaceJet(F)


def test_model_fields_annihilate_all_models():
    for m in range(1, 8):
        for n in range(1, 8):
            if m + n > 8:
                continue
            S = model_surface(m, n)
            g, L = S.grading, S.order
            for chi in ad.model_fields(m, n, g, L).values():
                assert ad.apply_field(chi, S).is_zero(), (m, n)


def test_tangency_residual_is_linear_in_field():
    S = model_surface(2, 3)
    g, L = S.grading, S.order
    chi0 = ad.grading_field(g, L)
    chik = ad.square_field(2, 3, g, L)
    combo = ad.VField(eta=chi0.eta + chik.eta * 2,
                      alpha=chi0.alpha + chik.alpha * 2,
                      beta=chi0.beta + chik.beta * 2,
                      xi=chi0.xi + chik.xi * 2)
    r = ad.apply_field(combo, S).residual
    r0 = ad.apply_field(chi0, S).residual
    rk = ad.apply_field(chik, S).residual
    assert r == r0 + rk * 2


def test_rotation_field_off_pattern_coefficient():
    # on a deformation c b^j x^l the rotation field leaves the residual
    # c (m l - n j) b^j x^l, so off-pattern terms survive with that factor
    m, n = 2, 2
    g = singular_grading(4)
    L = 12
    F = (Poly.var("a", g, L) + Poly.monomial(1, g, L, b=2, x=2)
         + Poly.monomial(Fraction(1, 3), g, L, b=2, x=5))
    S = SurfaceJet(F)
    chi = ad.rotation_field(m, n, g, L)
    r = ad.apply_field(chi, S).residual
    assert r.coeff_mono(b=2, x=5) == Fraction(1, 3) * (2 * 5 - 2 * 2)


def test_on_pattern_deformation_keeps_rotation():
    m, n = 1, 2
    g = singular_grading(3)
    L = 12
    F = (Poly.var("a", g, L) + Poly.monomial(1, g, L, b=1, x=2)
         + Poly.monomial(5, g, L, a=1, b=2, x=4)
         + Poly.monomial(-2, g, L, b=3, x=6))
    S = SurfaceJet(F)
    chi = ad.rotation_field(m, n, g, L)
    assert ad.is_infinitesimal_automorphism(chi, S)
    pat = ad.monomial_pattern_check(S, m, n)
    assert pat["loose"] and not pat["strict"]


def test_pattern_check_strict():
    m, n = 2, 2
    g = singular_grading(4)
    L = 12
    F = (Poly.var("a", g, L) + Poly.monomial(1, g, L, b=2, x=2)
         + Poly.monomial(1, g, L, b=4, x=4))
    pat = ad.monomial_pattern_check(SurfaceJet(F), m, n)
    assert pat["loose"] and pat["strict"]
    # (3,3) is not a power of b^2 x^2 but 2 b d/db - 2 x d/dx is tangent to it
    F = F + Poly.monomial(1, g, L, b=3, x=3)
    pat = ad.monomial_pattern_check(SurfaceJet(F), m, n)
    assert pat["loose"] and pat["strict"]
    F = F + Poly.monomial(1, g, L, b=3, x=2)  # 3 * 2 != 2 * 2: off pattern
    pat = ad.monomial_pattern_check(SurfaceJet(F), m, n)
    assert not pat["loose"] and not pat["strict"]


def test_verdict_model():
    rep = ad.isotropy_report(model_surface(2, 3), TypeData(5, 2, 3))
    assert rep.verdict == ad.MODEL
    assert set(rep.fields) == {"chi0", "chi", "chik"}


def test_verdict_one_parameter():
    g = singular_grading(3)
    L = 12
    F = (Poly.var("a", g, L) + Poly.monomial(1, g, L, b=1, x=2)
         + Poly.monomial(7, g, L, b=2, x=4))
    rep = ad.isotropy_report(SurfaceJet(F), TypeData(3, 1, 2))
    assert rep.verdict == ad.ONE_PARAMETER
    assert list(rep.fields) == ["chi"]


def test_verdict_trivial():
    g = singular_grading(3)
    L = 12
    F = (Poly.var("a", g, L) + Poly.monomial(1, g, L, b=1, x=2)
         + Poly.monomial(1, g, L, b=2, x=3))
    rep = ad.isotropy_report(SurfaceJet(F), TypeData(3, 1, 2))
    assert rep.verdict == ad.TRIVIAL


def test_isotropy_autodetects_type():
    rep = ad.isotropy_report(model_surface(2, 3))
    assert (rep.m, rep.n) == (2, 3)
    assert rep.verdict == ad.MODEL
    with pytest.raises(ValueError):
        ad.isotropy_report(SurfaceJet(Poly.var("a", UNIT, 8)))


def test_grading_field_tangent_to_any_weighted_homogeneous_piece():
    # chi0 is tangent exactly when every term of f is weighted homogeneous
    # of the grading's top weight; a mixed-weight deformation breaks it
    g = singular_grading(4)
    L = 12
    F = (Poly.var("a", g, L) + Poly.monomial(1, g, L, b=2, x=2)
         + Poly.monomial(1, g, L, b=3, x=3))
    chi0 = ad.grading_field(g, L)
    assert not ad.is_infinitesimal_automorphism(chi0, SurfaceJet(F))
