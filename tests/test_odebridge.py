import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from paracr import odebridge as ob
from paracr.cmoperator import weighted_monomials
from paracr.poly import Poly, REGULAR, RelaxedSubstitution, UNIT, VAR_INDEX, \
    mono_exps
from paracr.series import SolveError
from paracr.surfaces import SurfaceJet
from conftest import random_ode_jet, sweep_solve


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


def corrupt_product(monkeypatch, key, weight):
    """Add 1 to one coefficient of one part of every RelaxedSubstitution's
    product table: the weight-`weight` part of the product of the series to
    the powers `key`."""
    exact = RelaxedSubstitution._product

    def corrupted(self, k, w):
        d, items = exact(self, k, w)
        if (k, w) == (key, weight):
            (e, n), *rest = items
            return d, [(e, n + d), *rest]
        return d, items

    monkeypatch.setattr(RelaxedSubstitution, "_product", corrupted)


LOG_ODE = ode(Poly.monomial(1, UNIT, 6, p=2))  # F = a - ln(1 - bx)


def test_elimination_identity_check_is_live(monkeypatch):
    # a wrong part of b^2 in the elimination's table must be caught by the
    # closing check of F(a, b, x) = y and F_x(a, b, x) = p
    S = ob.ode_to_surface(LOG_ODE)
    corrupt_product(monkeypatch, (0, 2), 2)
    with pytest.raises(SolveError, match="F\\(a, b, x\\) = y"):
        ob.eliminate_initial_conditions(S)


def test_ode_own_equation_check_is_live(monkeypatch):
    # a wrong part of (F_x)^2 puts F off its equation F_xx = (F_x)^2
    corrupt_product(monkeypatch, (0, 2), 2)
    with pytest.raises(SolveError, match="own equation"):
        ob.ode_to_surface(LOG_ODE)


def test_ode_fixed_point_check_is_live(monkeypatch):
    # an x-free a^2 in F passes F_xx = B(x, F, F_x) when B does not read y;
    # only the fixed point F = a + bx + (double integral of B) catches it
    exact = RelaxedSubstitution.extend

    def corrupted(self, var, part):
        if var == "y" and part.order == 2:
            part = part + Poly.monomial(1, UNIT, 2, a=2)
        exact(self, var, part)

    monkeypatch.setattr(RelaxedSubstitution, "extend", corrupted)
    with pytest.raises(SolveError, match="F = a \\+ bx"):
        ob.ode_to_surface(LOG_ODE)


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


# ---- differential and oracle tests -----------------------------------------

coefs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def ode_jets(draw):
    """(OdeJet, order): B of degree 1..6 in (x, y, p) whose constant and
    linear coefficients are always drawn, and a surface order 2..8."""
    n = draw(st.integers(1, 6))
    terms = {}
    for w in range(n + 1):
        for e in weighted_monomials(w, ("x", "y", "p"), UNIT):
            if w <= 1 or draw(st.booleans()):
                terms[e] = draw(coefs)
    return ob.OdeJet(Poly(terms, UNIT, n)), draw(st.integers(2, 8))


@st.composite
def surfaces(draw):
    """a + c bx + f with c != 0 and f random of degree 2..L, L in 2..8."""
    L = draw(st.integers(2, 8))
    c = draw(coefs.filter(bool))
    terms = {mono_exps(a=1): Fraction(1), mono_exps(b=1, x=1): c}
    for w in range(2, L + 1):
        for e in weighted_monomials(w, ("a", "b", "x"), UNIT):
            if e != mono_exps(b=1, x=1) and draw(st.booleans()):
                terms[e] = draw(coefs)
    return SurfaceJet(Poly(terms, UNIT, L))


def sweeps_surface(ode_jet, order):
    """F by growing sweeps of F = a + bx + (double integral of B(x, F, F_x))."""
    B = ode_jet.B.with_order(order)
    base = Poly.var("a", UNIT, order) + Poly.monomial(1, UNIT, order, b=1, x=1)

    def rhs(F):
        G = B.substitute({"y": F, "p": F.partial("x")})
        return base + G.integrate("x").integrate("x")

    return sweep_solve(rhs, base, order)


def per_degree_elimination(surface):
    """(a, b, phi) by one full substitution pass per degree: a <- y - c b x
    - f(a, b), then b <- (p - f_x(a, b)) / c."""
    L = surface.order
    F = surface.F
    x, y, p = (Poly.var(v, UNIT, L) for v in "xyp")
    c = F.coeff_mono(b=1, x=1)
    f = F - Poly.var("a", UNIT, L) - Poly.monomial(c, UNIT, L, b=1, x=1)
    fx = F.partial("x").with_order(L) - Poly.monomial(c, UNIT, L, b=1)
    aS = bS = Poly.zero(UNIT, 0)
    for w in range(1, L + 1):
        bS = bS.with_order(w)
        aS = y - bS * x * c - f.substitute({"a": aS.with_order(w), "b": bS})
        bS = (p - fx.substitute({"a": aS, "b": bS})) * (1 / Fraction(c))
    return aS, bS, bS.integrate("x").with_order(L) - x * p


@settings(max_examples=30, deadline=None)
@given(ode_jets())
def test_one_pass_surface_matches_sweeps(case):
    ode_jet, order = case
    F = ob.ode_to_surface(ode_jet, order).F
    want = sweeps_surface(ode_jet, order)
    assert F == want and F.order == want.order == order


@settings(max_examples=30, deadline=None)
@given(surfaces())
def test_one_pass_elimination_matches_per_degree(surface):
    data = ob.eliminate_initial_conditions(surface)
    got = (data.a_series, data.b_series, data.phi)
    want = per_degree_elimination(surface)
    assert got == want
    assert [s.order for s in got] == [s.order for s in want]


def sympy_picard(ode_jet, order) -> dict:
    """F by sympy: Picard iteration of F = a + bx + (double integral of
    B(x, F, F_x)), every product truncated at total degree `order`."""
    sympy = pytest.importorskip("sympy")
    a, b, x = sympy.symbols("a b x")

    def trunc(P, d):
        return sympy.Poly.from_dict(
            {m: c for m, c in P.as_dict().items() if sum(m) <= d},
            a, b, x, domain=sympy.QQ)

    def powers(P, n, d):
        out = [sympy.Poly(1, a, b, x, domain=sympy.QQ)]
        for _ in range(n):
            out.append(trunc(out[-1] * P, d))
        return out

    ix, iy, ip = VAR_INDEX["x"], VAR_INDEX["y"], VAR_INDEX["p"]
    n = max(e[iy] + e[ip] for e in ode_jet.B.terms) if ode_jet.B.terms else 0
    base = sympy.Poly(a + b * x, a, b, x, domain=sympy.QQ)
    F = base
    for _ in range(order):
        Fy, Fp = powers(F, n, order - 2), powers(F.diff(x), n, order - 2)
        G = sympy.Poly(0, a, b, x, domain=sympy.QQ)
        for e, c in ode_jet.B.terms.items():
            term = trunc(Fy[e[iy]] * Fp[e[ip]], order - 2 - e[ix])
            G += term * sympy.Poly(x ** e[ix], a, b, x, domain=sympy.QQ) \
                * sympy.Rational(c.numerator, c.denominator)
        F = trunc(base + trunc(G, order - 2).integrate(x).integrate(x), order)
    return {(i, j, k, 0, 0): Fraction(int(c.p), int(c.q))
            for (i, j, k), c in F.as_dict().items() if c != 0}


@settings(max_examples=15, deadline=None)
@given(ode_jets())
def test_surface_matches_sympy_picard(case):
    pytest.importorskip("sympy")
    ode_jet, order = case
    assert ob.ode_to_surface(ode_jet, order).F.terms == sympy_picard(ode_jet, order)
