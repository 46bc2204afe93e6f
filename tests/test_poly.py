import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paracr.cmoperator import weighted_monomials
from paracr.poly import (Poly, Grading, REGULAR, UNIT, VARS, VAR_INDEX,
                         singular_grading, GradingError, Substitution,
                         SubstitutionError, mono_exps)


def P(terms, g=REGULAR, order=8):
    return Poly(terms, g, order)


def test_gradings():
    assert REGULAR.weight_of("a") == 2
    assert REGULAR.weight_of("b") == 1
    assert REGULAR.weight(mono_exps(a=1, b=2, x=1)) == 5
    g5 = singular_grading(5)
    assert g5.weight(mono_exps(a=1, x=2)) == 7
    assert g5.type_k == 5
    with pytest.raises(ValueError):
        singular_grading(1)


def test_truncation_on_construction():
    p = P({mono_exps(b=9): 1, mono_exps(b=2): 1})
    assert p.coeff_mono(b=9) == 0
    assert p.coeff_mono(b=2) == 1


def test_add_cancellation():
    a = Poly.var("a", REGULAR, 8)
    bx = Poly.monomial(1, REGULAR, 8, b=1, x=1)
    assert (a + bx) + (-bx) == a
    assert a + 0 == a
    half = Poly.monomial(Fraction(1, 2), REGULAR, 8, b=2, x=2)
    assert half + half == Poly.monomial(1, REGULAR, 8, b=2, x=2)


def test_mul_truncates():
    b = Poly.var("b", REGULAR, 4)
    assert (b ** 4).coeff_mono(b=4) == 1
    assert (b ** 5).is_zero()
    x = Poly.var("x", REGULAR, 4)
    assert (b * x * b * x).coeff_mono(b=2, x=2) == 1


def test_grading_mismatch_raises():
    with pytest.raises(GradingError):
        Poly.var("a", REGULAR, 8) + Poly.var("a", UNIT, 8)


def test_partial_and_integrate():
    p = Poly.monomial(3, REGULAR, 8, b=2, x=2)
    assert p.partial("b") == Poly.monomial(6, REGULAR, 7, b=1, x=2)
    assert p.partial("b").order == 7
    q = Poly.monomial(1, REGULAR, 8, x=2)
    assert q.integrate("x") == Poly.monomial(Fraction(1, 3), REGULAR, 9, x=3)
    # derivative of an exact monomial round-trips through integration
    assert p.partial("x").integrate("x").with_order(8) == p


def test_components_and_weights():
    p = (Poly.var("a", REGULAR, 8)
         + Poly.monomial(2, REGULAR, 8, b=2, x=2)
         + Poly.monomial(1, REGULAR, 8, a=2, b=1, x=1))
    assert p.min_weight() == 2
    assert p.component(4) == Poly.monomial(2, REGULAR, 8, b=2, x=2)
    assert p.up_to_weight(4) == p.component(2) + p.component(4)
    ws = [w for w, _ in p.weighted_components()]
    assert ws == [2, 4, 6]


def test_coeff_series_and_set_zero():
    p = (Poly.monomial(3, REGULAR, 8, a=1, b=2, x=2)
         + Poly.monomial(5, REGULAR, 8, b=2, x=2)
         + Poly.monomial(7, REGULAR, 8, b=2, x=3))
    s = p.coeff_series(b=2, x=2)
    assert s == Poly.monomial(3, REGULAR, 8, a=1) + Poly.const(5, REGULAR, 8)
    assert p.set_zero("a") == (Poly.monomial(5, REGULAR, 8, b=2, x=2)
                               + Poly.monomial(7, REGULAR, 8, b=2, x=3))


def test_substitute_filtration_guard():
    p = Poly.var("a", REGULAR, 8)
    low = Poly.var("b", REGULAR, 8)  # weight 1 < weight 2 of a
    with pytest.raises(SubstitutionError):
        p.substitute({"a": low})


def test_substitute_composition():
    g, L = UNIT, 6
    x = Poly.var("x", g, L)
    y = Poly.var("y", g, L)
    p = x * x + y
    q = p.substitute({"x": x + y, "y": x * y})
    expected = (x + y) * (x + y) + x * y
    assert q == expected


def test_substitute_matches_naive_random():
    rng = random.Random(0)
    g, L = UNIT, 5
    vals = {}
    for v in ("a", "b", "x"):
        vals[v] = (Poly.var(v, g, L)
                   + Poly.monomial(rng.randint(-2, 2), g, L, b=1, x=1))
    p = (Poly.monomial(Fraction(2, 3), g, L, a=1, x=2)
         + Poly.monomial(-1, g, L, b=3))
    direct = p.substitute(vals)
    naive = (vals["a"] * vals["x"] * vals["x"] * Fraction(2, 3)
             - vals["b"] * vals["b"] * vals["b"])
    assert direct == naive


def test_str_canonical_and_stable():
    p = (Poly.var("a", REGULAR, 8)
         + Poly.monomial(1, REGULAR, 8, b=1, x=1)
         - Poly.monomial(Fraction(3, 2), REGULAR, 8, b=2, x=2))
    assert str(p) == "a + b x - 3/2 b^2 x^2"
    assert str(Poly.zero(REGULAR, 8)) == "0"
    assert str(-Poly.var("b", REGULAR, 8)) == "-b"


def test_scalar_ops():
    b = Poly.var("b", REGULAR, 8)
    assert 2 * b == b + b
    assert b * Fraction(1, 2) + b * Fraction(1, 2) == b
    assert (1 - b).constant_term() == 1


coefs = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def polys(draw, g, order: int, lo: int, hi: int, max_terms: int = 4,
          min_terms: int = 0) -> Poly:
    """Random nonzero terms of weight lo..hi in all five variables; a term
    above `order` is dropped on construction."""
    monos = [e for w in range(lo, hi + 1) for e in weighted_monomials(w, VARS, g)]
    if not monos:
        return Poly.zero(g, order)
    exps = draw(st.lists(st.sampled_from(monos), min_size=min_terms,
                         max_size=max_terms, unique=True))
    return Poly({e: draw(coefs.filter(bool)) for e in exps}, g, order)


@st.composite
def substitutions(draw):
    """(subs, grading, order), each series of weighted order at least the
    weight of its variable.  A series may also be zero, which annihilates
    every term that uses it, or raise weights (its variable squared plus
    heavier terms), so that some terms have images wholly above the order
    and are skipped."""
    g = draw(st.sampled_from([REGULAR, UNIT, singular_grading(3)]))
    L = draw(st.integers(2, 6))
    names = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=3,
                          unique=True))
    subs = {}
    for v in names:
        order = draw(st.integers(L - 1, L + 1))
        w = g.weight_of(v)
        kind = draw(st.sampled_from(["series", "zero", "raising"]))
        if kind == "zero":
            s = Poly.zero(g, order)
        elif kind == "raising":
            s = Poly.var(v, g, order) ** 2 + draw(polys(g, order, 2 * w + 1, order))
        else:
            s = draw(polys(g, order, w, order))
        subs[v] = s
    return subs, g, L


@settings(max_examples=60, deadline=None)
@given(substitutions(), st.data())
def test_substitution_reused_matches_fresh(case, data):
    subs, g, L = case
    sub = Substitution(subs, g, L)
    assert sub.order == min([L] + [s.order for s in subs.values()])
    for _ in range(3):
        order = data.draw(st.integers(0, sub.order))
        p = data.draw(polys(g, order, 0, order + 1, 6))
        got, fresh = sub(p), p.substitute(subs)
        assert got == fresh and got.order == fresh.order == order


def sympy_compose(p: Poly, subs: dict) -> dict:
    """p(subs) by sympy, expanded and truncated at p's order by weight."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(VARS)

    def expr(q: Poly):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*(t ** e for t, e in zip(syms, exps)))
                           for exps, c in q.terms.items()))

    images = {syms[VAR_INDEX[v]]: expr(s) for v, s in subs.items()}
    composed = sympy.expand(expr(p).subs(images, simultaneous=True))
    return {exps: Fraction(int(c.p), int(c.q))
            for exps, c in sympy.Poly(composed, *syms).terms()
            if c != 0 and p.grading.weight(exps) <= p.order}


@settings(max_examples=40, deadline=None)
@given(substitutions(), st.data())
def test_substitution_matches_sympy(case, data):
    pytest.importorskip("sympy")
    subs, g, L = case
    sub = Substitution(subs, g, L)
    for _ in range(2):
        order = data.draw(st.integers(0, sub.order))
        p = data.draw(polys(g, order, 0, order + 1))
        assert sub(p).terms == sympy_compose(p, subs)
