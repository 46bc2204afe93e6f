import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paracr import regnorm
from paracr.poly import Poly, REGULAR
from paracr.surfaces import PointMap, SurfaceJet, apply_map
from conftest import random_regular_jet, sweep_solve


def jet(*terms, order=8):
    g = REGULAR
    F = Poly.var("a", g, order) + Poly.monomial(1, g, order, b=1, x=1)
    for c, exps in terms:
        F = F + Poly.monomial(c, g, order, **exps)
    return SurfaceJet(F)


def test_conditions_on_flat():
    assert regnorm.is_normal(jet())


def test_conditions_detect_each_violation():
    cases = {
        "i": (1, dict(x=3)),
        "ii": (1, dict(b=1, x=3)),
        "iii": (1, dict(b=2, x=2)),
        "iv": (1, dict(b=3, x=2)),
        "v": (1, dict(b=3, x=3)),
    }
    for key, term in cases.items():
        cond = regnorm.check_normal_conditions(jet(term))
        assert not cond[key], key


def test_flat_is_fixed_point():
    rep = regnorm.normalize_jet(jet())
    assert rep.normalized.F == jet().F
    assert rep.transform.is_identity()


def test_pure_cubic_eliminated():
    rep = regnorm.normalize_jet(jet((1, dict(x=3))))
    assert rep.normalized.F == jet().F
    assert rep.conditions_ok


def test_square_term_leaves_retained_trace():
    # b^2 x^2 cannot be preserved, but it leaves a weight-8 trace on the
    # retained monomial b^4 x^4
    rep = regnorm.normalize_jet(jet((1, dict(b=2, x=2))))
    assert rep.conditions_ok
    f = rep.normalized.f_regular()
    assert f == Poly.monomial(Fraction(10, 3), REGULAR, 8, b=4, x=4)


def test_normalize_requires_preliminary_shape():
    g = REGULAR
    F = Poly.var("a", g, 8) + Poly.monomial(2, g, 8, b=1, x=1)
    with pytest.raises(ValueError):
        regnorm.normalize_jet(SurfaceJet(F))


def test_normalize_random_jets_sound():
    rng = random.Random(1)
    for _ in range(5):
        S = random_regular_jet(rng)
        rep = regnorm.normalize_jet(S)
        assert rep.conditions_ok
        assert apply_map(S, rep.transform).F == rep.normalized.F
        mw = rep.normalized.f_regular().min_weight()
        assert mw is None or mw >= 6


def test_eliminated_bookkeeping():
    rep = regnorm.normalize_jet(jet((1, dict(x=3)), (2, dict(b=2, x=2))))
    assert 3 in rep.eliminated_by_weight
    assert 4 in rep.eliminated_by_weight


def test_geometric_matches_conditions():
    rng = random.Random(2)
    for _ in range(3):
        S = random_regular_jet(rng)
        rep = regnorm.geometric_normalize(S)
        assert rep.conditions_ok
        assert apply_map(S, rep.transform).F == rep.normalized.F


def test_geometric_flat_stays_flat():
    rep = regnorm.geometric_normalize(jet())
    assert rep.normalized.F == jet().F


def test_chain_solves_its_equations():
    rng = random.Random(3)
    S = random_regular_jet(rng)
    f = S.f_regular()
    chain = regnorm.solve_chain(f)
    dp = chain.p.partial("a").with_order(8)
    dpi = chain.pi.partial("a").with_order(8)
    lhs_p = chain.p.partial("a", 2).with_order(4) - (dp * dp * dpi).up_to_weight(4)
    rhs_p = (f.coeff_series(b=3, x=2) * 2).up_to_weight(4)
    assert lhs_p == rhs_p
    lhs_pi = chain.pi.partial("a", 2).with_order(4) + (dpi * dpi * dp).up_to_weight(4)
    rhs_pi = (f.coeff_series(b=2, x=3) * 2).up_to_weight(4)
    assert lhs_pi == rhs_pi


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 8))
def test_relaxed_solves_match_sweeps(seed, order):
    # _a_of_xy and psi against growing sweeps of their old right sides
    f = random_regular_jet(random.Random(seed), order=order).f_regular()
    y = Poly.var("y", REGULAR, order)
    a_xy = sweep_solve(lambda s: y - f.set_zero("b").substitute({"a": s}),
                       y, order)
    assert regnorm._a_of_xy(f) == a_xy
    chain = regnorm.solve_chain(f)
    p, pi, q = chain.p, chain.pi, chain.q
    psi = sweep_solve(
        lambda s: q - pi * p - f.substitute({"a": s, "b": pi, "x": p}),
        q, order)
    assert chain.psi == psi and chain.psi.order == order
