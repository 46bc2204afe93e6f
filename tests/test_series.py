from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paracr.cmoperator import weighted_monomials
from paracr.poly import Poly, REGULAR, RelaxedSubstitution, UNIT, mono_exps
from paracr.series import (SolveError, divide, implicit_solve, ode_solve,
                           reciprocal, reverse_univariate, sqrt_unit)
from conftest import sweep_solve


def geometric_oracle(order):
    """1/(1-x) as an explicit truncated series."""
    p = Poly.zero(UNIT, order)
    for n in range(order + 1):
        p = p + Poly.monomial(1, UNIT, order, x=n)
    return p


def test_reciprocal_geometric():
    x = Poly.var("x", UNIT, 7)
    assert reciprocal(1 - x) == geometric_oracle(7)
    one = Poly.const(1, UNIT, 7)
    p = 1 + x + x * x * Fraction(1, 2)
    assert (p * reciprocal(p)) == one


def test_reciprocal_needs_unit():
    with pytest.raises(SolveError):
        reciprocal(Poly.var("x", UNIT, 5))


def test_divide():
    x = Poly.var("x", UNIT, 6)
    assert divide(x * x, 1 - x) == x * x * geometric_oracle(6)


def test_sqrt():
    x = Poly.var("x", UNIT, 6)
    p = 1 + x
    r = sqrt_unit(p)
    assert r * r == p
    assert r.constant_term() == 1
    q = Poly.const(Fraction(9, 4), UNIT, 6) + x
    r = sqrt_unit(q)
    assert r * r == q
    assert r.constant_term() == Fraction(3, 2)
    with pytest.raises(SolveError):
        sqrt_unit(Poly.const(2, UNIT, 6))


def test_reversion():
    x = Poly.var("x", UNIT, 8)
    p = x + x * x
    q = reverse_univariate(p, "x")
    assert p.substitute({"x": q}) == x
    assert q.substitute({"x": p}) == x


def test_implicit_solve_catalan():
    # s = x + s^2 generates the Catalan numbers; with base x and unknown x,
    # s = x + s^2 solves the same equation, since base is not substituted
    x, y = Poly.var("x", UNIT, 8), Poly.var("y", UNIT, 8)
    for s in (implicit_solve({"y": x + y * y})["y"],
              implicit_solve({"x": x * x}, {"x": x})["x"]):
        coeffs = [s.coeff_mono(x=n) for n in range(1, 9)]
        assert coeffs == [1, 1, 2, 5, 14, 42, 132, 429] and s.order == 8


def test_implicit_solve_detects_stall():
    x, y = Poly.var("x", UNIT, 6), Poly.var("y", UNIT, 6)
    # a term linear in the unknown: its weight-1 part reads itself
    with pytest.raises(SolveError, match="weight-1 part of y"):
        implicit_solve({"y": x + y})
    # a constant below the unknown's weight 1
    with pytest.raises(SolveError, match="y has a part of weight 0"):
        implicit_solve({"y": x + 1})
    # b reads the weight-1 part of a before it is set
    b = Poly.var("b", UNIT, 6)
    with pytest.raises(SolveError, match="weight-1 part of a"):
        implicit_solve({"a": x + b, "b": x})


def test_implicit_solve_check_is_live(monkeypatch):
    # a wrong weight-3 part of y is caught by the closing substitution
    x, y = Poly.var("x", UNIT, 6), Poly.var("y", UNIT, 6)
    exact = RelaxedSubstitution.extend

    def corrupted(self, var, part):
        if part.order == 3:
            part = part + Poly.monomial(1, UNIT, 3, x=3)
        exact(self, var, part)

    monkeypatch.setattr(RelaxedSubstitution, "extend", corrupted)
    with pytest.raises(SolveError, match="y fails its equation at weight 3"):
        implicit_solve({"y": x + y * y})


coefs = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def random_poly(draw, g, L: int, low: int, exclude=()) -> Poly:
    """Up to four terms in (a, b, x) of weight low..L, none in `exclude`."""
    monos = [e for w in range(low, L + 1)
             for e in weighted_monomials(w, ("a", "b", "x"), g)
             if e not in exclude]
    chosen = draw(st.lists(st.sampled_from(monos), max_size=4, unique=True))
    return Poly({e: draw(coefs) for e in chosen}, g, L)


@st.composite
def triangular_systems(draw):
    """(G, base, the sweep right side on a tuple, its zero seed): one
    unknown a, or a then b, where b may read a at the same weight; UNIT or
    REGULAR; with or without base."""
    g = draw(st.sampled_from([UNIT, REGULAR]))
    L = draw(st.integers(2, 7))
    names = draw(st.sampled_from([("a",), ("a", "b")]))
    linear = {mono_exps(a=1), mono_exps(b=1)}
    G = {v: random_poly(draw, g, L, g.weight_of(v), linear) for v in names}
    if len(names) == 2:
        G["b"] = G["b"] + Poly.monomial(draw(coefs), g, L, a=1)
    base = None
    if draw(st.booleans()):
        base = {v: random_poly(draw, g, L, g.weight_of(v)) for v in names}

    def rhs(s):
        # Gauss-Seidel, in the solver's order: b reads the new a
        new = dict(zip(names, s))
        for v in names:
            new[v] = G[v].substitute(new) + (base[v] if base else 0)
        return tuple(new[v] for v in names)

    return G, base, rhs, tuple(Poly.zero(g, L) for _ in names)


@settings(max_examples=60, deadline=None)
@given(triangular_systems())
def test_implicit_solve_matches_sweeps(case):
    G, base, rhs, seed = case
    L = seed[0].order
    got = implicit_solve(G, base)
    assert tuple(got) == tuple(G)
    assert tuple(got.values()) == sweep_solve(rhs, seed, L)
    assert all(s.order == L for s in got.values())


def sympy_coeffs(expr, order: int) -> list:
    """Coefficients of x^0 .. x^order of a sympy expression's expansion."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    series = sympy.series(expr, x, 0, order + 1).removeO()
    return [Fraction(str(series.coeff(x, n))) for n in range(order + 1)]


@st.composite
def univariate(draw, constant):
    """A series in x of order <= 8 with constant term `constant`, as a Poly
    and as a sympy expression."""
    sympy = pytest.importorskip("sympy")
    L = draw(st.integers(1, 8))
    cs = [constant] + [draw(coefs) for _ in range(L)]
    p = Poly({mono_exps(x=n): c for n, c in enumerate(cs)}, UNIT, L)
    x = sympy.symbols("x")
    return p, sum(sympy.Rational(c.numerator, c.denominator) * x ** n
                  for n, c in enumerate(cs))


nonzero = coefs.filter(bool)


@settings(max_examples=8, deadline=None)
@given(nonzero.flatmap(univariate))
def test_reciprocal_matches_sympy(case):
    p, expr = case
    got = reciprocal(p)
    assert [got.coeff_mono(x=n) for n in range(p.order + 1)] == \
        sympy_coeffs(1 / expr, p.order)


@settings(max_examples=8, deadline=None)
@given(nonzero.flatmap(lambda r: univariate(r * r)))
def test_sqrt_unit_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    p, expr = case
    got = sqrt_unit(p)
    assert [got.coeff_mono(x=n) for n in range(p.order + 1)] == \
        sympy_coeffs(sympy.sqrt(expr), p.order)


@settings(max_examples=8, deadline=None)
@given(univariate(Fraction(0)).filter(lambda case: case[0].coeff_mono(x=1)))
def test_reverse_univariate_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    p, expr = case
    x = sympy.symbols("x")
    q = reverse_univariate(p, "x")
    P = sympy.Poly(expr, x, domain=sympy.QQ)
    Q = sympy.Poly({(e[2],): sympy.Rational(c.numerator, c.denominator)
                    for e, c in q.terms.items()}, x, domain=sympy.QQ)
    modulus = sympy.Poly(x ** (p.order + 1), x, domain=sympy.QQ)
    for outer, inner in ((P, Q), (Q, P)):
        # Horner's rule, truncated at p's order after each step
        composed = sympy.Poly(0, x, domain=sympy.QQ)
        for c in outer.all_coeffs():
            composed = (composed * inner + c).rem(modulus)
        assert composed == sympy.Poly(x, x, domain=sympy.QQ)


def exp_oracle(order):
    p = Poly.zero(UNIT, order)
    fact = 1
    for n in range(order + 1):
        if n:
            fact *= n
        p = p + Poly.monomial(Fraction(1, fact), UNIT, order, x=n)
    return p


def test_ode_solve_exponential():
    u = ode_solve(1, lambda d, t: d[0], [Fraction(1)], "x", UNIT, 8)
    assert u == exp_oracle(8)


def test_ode_solve_trig():
    # u'' = -u with u(0)=1, u'(0)=0 gives the cosine series
    u = ode_solve(2, lambda d, t: -d[0], [Fraction(1), Fraction(0)],
                  "x", UNIT, 8)
    from math import factorial
    expected = Poly.zero(UNIT, 8)
    for j in range(5):
        c = Fraction((-1) ** j, factorial(2 * j))
        expected = expected + Poly.monomial(c, UNIT, 8, x=2 * j)
    assert u == expected


def test_ode_solve_with_parameters():
    # u' = a u, coefficients are series in a
    a = Poly.var("a", REGULAR, 8)
    u = ode_solve(1, lambda d, t: a * d[0], [Fraction(1)], "x", REGULAR, 8)
    assert u.coeff_mono(a=2, x=2) == Fraction(1, 2)
    assert u.coeff_mono(a=1, x=1) == 1
