import random
from fractions import Fraction
from math import factorial

import pytest

from paracr import odebridge as ob
from paracr.poly import Poly, REGULAR, UNIT, VAR_INDEX
from paracr.series import SolveError
from paracr.surfaces import SurfaceJet
from conftest import random_ode_jet


def ode(p):
    return ob.OdeJet(p)


def test_ode_jet_validation():
    with pytest.raises(ValueError):
        ob.OdeJet(Poly.var("a", UNIT, 6))
    with pytest.raises(ValueError):
        ob.OdeJet(Poly.var("p", REGULAR, 6))


def test_flat_ode():
    S = ob.ode_to_surface(ode(Poly.zero(UNIT, 6)))
    assert S.F == (Poly.var("a", UNIT, 8)
                   + Poly.monomial(1, UNIT, 8, b=1, x=1))


def oscillator_oracle(order):
    """a cos x + b sin x, expanded from the factorial series."""
    F = Poly.zero(UNIT, order)
    for j in range(order + 1):
        c = Fraction((-1) ** (j // 2), factorial(j))
        if j % 2 == 0:
            F = F + Poly.monomial(c, UNIT, order, a=1, x=j)
        else:
            F = F + Poly.monomial(c, UNIT, order, b=1, x=j)
    return F


def test_oscillator():
    S = ob.ode_to_surface(ode(-Poly.var("y", UNIT, 6)))
    assert S.F == oscillator_oracle(8)


def log_oracle(order):
    """a - ln(1 - bx) expanded: a + sum b^n x^n / n."""
    F = Poly.var("a", UNIT, order)
    n = 1
    while 2 * n <= order:
        F = F + Poly.monomial(Fraction(1, n), UNIT, order, b=n, x=n)
        n += 1
    return F


def test_squared_slope():
    S = ob.ode_to_surface(ode(Poly.monomial(1, UNIT, 6, p=2)))
    assert S.F == log_oracle(8)


def test_surface_to_ode_flat():
    F = Poly.var("a", UNIT, 8) + Poly.monomial(1, UNIT, 8, b=1, x=1)
    B, data = ob.surface_to_ode(SurfaceJet(F))
    assert B.B.is_zero()
    assert data.phi.is_zero()


def test_round_trip_log_surface():
    S = ob.ode_to_surface(ode(Poly.monomial(1, UNIT, 6, p=2)))
    back, _ = ob.surface_to_ode(S)
    assert back.B == Poly.monomial(1, UNIT, 6, p=2)


def test_round_trips_random():
    rng = random.Random(12)
    for _ in range(10):
        B = random_ode_jet(rng, order=6)
        S = ob.ode_to_surface(B)
        back, _ = ob.surface_to_ode(S)
        assert back.B == B.B


def test_elimination_leading_data():
    rng = random.Random(13)
    B = random_ode_jet(rng, order=6)
    S = ob.ode_to_surface(B)
    _, data = ob.surface_to_ode(S)
    y = Poly.var("y", UNIT, S.order)
    p = Poly.var("p", UNIT, S.order)
    f = S.F - Poly.var("a", UNIT, S.order) - Poly.monomial(1, UNIT, S.order,
                                                           b=1, x=1)
    assert data.a_series.coeff_series(x=0) == y
    assert data.a_series.coeff_series(x=1) == -p
    assert data.b_series.coeff_series(x=0) == p
    fxx0 = f.partial("x", 2).set_zero("x").substitute(
        {"a": y.with_order(S.order - 2), "b": p.with_order(S.order - 2)})
    assert data.b_series.coeff_series(x=1).up_to_weight(S.order - 3) == \
        (-fxx0).up_to_weight(S.order - 3)


def test_elimination_with_term_linear_in_x():
    # f_x has a term linear in a, so b reads a at its own degree.  F is an
    # exact polynomial, so F_x is known through degree L as well
    L = 8
    F = (Poly.var("a", UNIT, L) + Poly.monomial(1, UNIT, L, b=1, x=1)
         + Poly.monomial(1, UNIT, L, a=1, x=1)
         + Poly.monomial(1, UNIT, L, b=2, x=2))
    data = ob.eliminate_initial_conditions(SurfaceJet(F))
    on = {"a": data.a_series, "b": data.b_series}
    assert F.substitute(on) == Poly.var("y", UNIT, L)
    assert F.partial("x").with_order(L).substitute(on) == Poly.var("p", UNIT, L)



def test_elimination_with_bx_coefficient_not_one():
    # F = a + 2bx + b^2x^2: p = 2b + 2b^2x, so the sweep divides by 2
    L = 8
    F = (Poly.var("a", UNIT, L) + Poly.monomial(2, UNIT, L, b=1, x=1)
         + Poly.monomial(1, UNIT, L, b=2, x=2))
    ode, data = ob.surface_to_ode(SurfaceJet(F))
    q = lambda c, **e: Poly.monomial(c, UNIT, L - 2, **e)
    assert ode.B == (q(Fraction(1, 2), p=2) + q(Fraction(-1, 2), x=1, p=3)
                     + q(Fraction(5, 8), x=2, p=4))
    on = {"a": data.a_series, "b": data.b_series}
    assert F.substitute(on) == Poly.var("y", UNIT, L)
    assert F.partial("x").with_order(L).substitute(on) == Poly.var("p", UNIT, L)
    # the ODE identity F_xx = B(x, F, F_x) through degree L - 2
    Fxx = F.partial("x", 2).with_order(L - 2)
    assert Fxx == ode.B.substitute({"y": F.with_order(L - 2),
                                    "p": F.partial("x").with_order(L - 2)})
    assert data.phi.coeff_mono(x=1, p=1) == Fraction(-1, 2)


def test_elimination_identity_check_is_live(monkeypatch):
    # a solver whose substitutions drop their top degree must be caught by
    # the closing check of F(a, b, x) = y and F_x(a, b, x) = p
    S = ob.ode_to_surface(random_ode_jet(random.Random(5), order=6))
    exact = Poly.substitute

    def lossy(self, subs):
        out = exact(self, subs)
        return out.up_to_weight(out.order - 1)

    monkeypatch.setattr(Poly, "substitute", lossy)
    with pytest.raises(SolveError, match="F\\(a, b, x\\) = y"):
        ob.eliminate_initial_conditions(S)


def test_elimination_rejects_missing_bx():
    F = Poly.var("a", UNIT, 8) + Poly.monomial(1, UNIT, 8, b=2, x=2)
    with pytest.raises(ValueError, match="shape"):
        ob.eliminate_initial_conditions(SurfaceJet(F))

def test_check_ode_normal_families():
    assert ob.is_ode_normal(ode(Poly.monomial(1, UNIT, 6, p=4)))
    offenders = ob.check_ode_normal(ode(Poly.monomial(1, UNIT, 6, x=1, p=2)))
    assert list(offenders) == [(1, 2)]
    assert ob.is_ode_normal(ode(Poly.monomial(1, UNIT, 6, x=2, p=2)))
    assert not ob.is_ode_normal(ode(Poly.var("y", UNIT, 6)))  # family (0, 0)


def test_flat_consistency_of_normal_shape():
    # a normal jet whose surviving families all vanish is identically zero
    B = ode(Poly.monomial(1, UNIT, 6, p=4)
            + Poly.monomial(2, UNIT, 6, x=2, p=2))
    surviving = ob.tresse_first_invariant(B).is_zero()
    assert not surviving
    flat = ode(Poly.zero(UNIT, 6))
    assert ob.is_ode_normal(flat) and ob.tresse_first_invariant(flat).is_zero()


def test_tresse_first_invariant():
    assert ob.tresse_first_invariant(ode(Poly.monomial(1, UNIT, 6, p=4))) == \
        Poly.const(24, UNIT, 2)
    assert ob.tresse_first_invariant(
        ode(Poly.monomial(1, UNIT, 6, x=2, p=3))).is_zero()
    r, s = Fraction(2), Fraction(-3)
    B = ode(-Poly.var("p", UNIT, 6) * r - Poly.var("y", UNIT, 6) * s)
    assert ob.tresse_first_invariant(B).is_zero()


def test_linear_ode_surface():
    assert ob.linear_ode_surface(0, 0, 8).F == \
        Poly.var("a", UNIT, 8) + Poly.monomial(1, UNIT, 8, b=1, x=1)
    S = ob.linear_ode_surface(0, 1, 8)
    assert S.F == oscillator_oracle(8)
    S = ob.linear_ode_surface(Fraction(1, 2), Fraction(-1, 3), 8)
    f1 = S.F.coeff_series(a=1)
    f2 = S.F.coeff_series(b=1)
    w = (f2.partial("x") * f1 - f2 * f1.partial("x")).with_order(7)
    assert w.constant_term() != 0
