import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paracr import surfaces
from paracr.cmoperator import weighted_monomials
from paracr.poly import (Poly, REGULAR, UNIT, Substitution,
                         SubstitutionError, mono_exps, singular_grading)
from paracr.series import SolveError, implicit_solve
from paracr.singnorm import prelim_reduce_singular
from paracr.surfaces import (MapError, PointMap, SurfaceJet, apply_map,
                             invert_pair, preliminary_reduce)
from conftest import random_regular_jet, random_singular_jet


def var(name, g=REGULAR, order=8):
    return Poly.var(name, g, order)


def test_surface_jet_validation():
    with pytest.raises(ValueError):
        SurfaceJet(Poly.var("y", REGULAR, 8))
    s = SurfaceJet(var("a") + Poly.monomial(1, REGULAR, 8, b=1, x=1))
    assert s.f_regular().is_zero()


def test_pointmap_validation():
    with pytest.raises(ValueError):
        PointMap(var("a"), var("y"), var("a"), var("b"))  # X in wrong variables
    with pytest.raises(ValueError):
        PointMap(var("x") + 1, var("y"), var("a"), var("b"))  # moves origin


def test_invert_pair():
    # in REGULAR, x^2 has the weight of y: the inverse must pick it up at the
    # same weight as the linear part of y
    for g in (UNIT, REGULAR):
        L = 8
        x, y = Poly.var("x", g, L), Poly.var("y", g, L)
        P = x + x * y
        Q = y + x * x
        ux, uy = invert_pair(P, Q, ("x", "y"))
        # Poly equality ignores the truncation order, so pin it separately
        assert ux.order == uy.order == L
        assert P.substitute({"x": ux, "y": uy}) == x
        assert Q.substitute({"x": ux, "y": uy}) == y


def test_compose_rejects_weight_lowering_first_map():
    # A = a + b lowers the weight of a (2) to 1 in the regular grading, so
    # truncating the composition at weight 8 would drop known terms
    first = PointMap(var("x"), var("y"), var("a") + var("b"), var("b"))
    second = PointMap(var("x"), var("y"), var("a") + var("a") * var("b"),
                      var("b"))
    with pytest.raises(SubstitutionError):
        second.compose(first)
    # in the unit grading the same maps keep the filtration
    unit = [m.with_grading(UNIT, 8) for m in (first, second)]
    assert unit[1].compose(unit[0]).Ac == (Poly.var("a", UNIT, 8)
                                           + Poly.var("b", UNIT, 8)) * (
        1 + Poly.var("b", UNIT, 8))


def test_apply_map_translation_shear():
    # Y = y - x^3 absorbs a pure x^3 term
    g, L = REGULAR, 8
    F = var("a") + Poly.monomial(1, g, L, b=1, x=1) + Poly.monomial(1, g, L, x=3)
    step = PointMap(var("x"), var("y") - Poly.monomial(1, g, L, x=3),
                    var("a"), var("b"))
    out = apply_map(SurfaceJet(F), step)
    assert out.F == var("a") + Poly.monomial(1, g, L, b=1, x=1)


def test_apply_map_functoriality():
    rng = random.Random(9)
    S = random_regular_jet(rng)
    g, L = REGULAR, 8
    m1 = PointMap(var("x"), var("y") + Poly.monomial(2, g, L, x=3),
                  var("a") + Poly.monomial(1, g, L, a=1, b=1),
                  var("b"))
    m2 = PointMap(var("x") + Poly.monomial(Fraction(1, 2), g, L, x=2),
                  var("y"),
                  var("a"),
                  var("b") + Poly.monomial(-1, g, L, b=2))
    once = apply_map(apply_map(S, m1), m2)
    composed = apply_map(S, m2.compose(m1))
    assert once.F == composed.F


def test_apply_map_weighted_path_matches_unit_path():
    # a map that is the identity plus higher weights in both the type-5 and
    # the unit grading is applied in either; the unit-grading computation is
    # the reference for the type-5 one
    k, L = 5, 11
    g = singular_grading(k)
    rng = random.Random(11)
    M = PointMap(var("x", g, L) + Poly.monomial(Fraction(1, 2), g, L, x=2)
                 + Poly.monomial(-1, g, L, x=1, y=1),
                 var("y", g, L) + Poly.monomial(2, g, L, x=6)
                 + Poly.monomial(1, g, L, x=1, y=1),
                 var("a", g, L) + Poly.monomial(1, g, L, b=6)
                 + Poly.monomial(Fraction(-1, 3), g, L, a=1, b=1),
                 var("b", g, L) + Poly.monomial(1, g, L, b=2)
                 + Poly.monomial(1, g, L, a=1, b=1))
    for h in (g, UNIT):
        for c, v in zip((M.Xc, M.Yc, M.Ac, M.Bc), "xyab"):
            rest = c.with_grading(h, L) - Poly.var(v, h, L)
            assert rest.min_weight() > h.weight_of(v)
    for m in (1, 2):
        S = random_singular_jet(rng, k=k, m=m, order=L)
        unit = apply_map(SurfaceJet(S.F.with_grading(UNIT, L)),
                         M.with_grading(UNIT, L))
        assert apply_map(S, M).F == unit.F.with_grading(g, L)
    # the map this test used before: its weight-preserving part
    # (x - y, y + 2x^5, a + b^5, b + a) is not the identity
    old = PointMap(var("x", g, L) + Poly.monomial(Fraction(1, 2), g, L, x=2)
                   + Poly.monomial(-1, g, L, y=1),
                   var("y", g, L) + Poly.monomial(2, g, L, x=5)
                   + Poly.monomial(1, g, L, x=1, y=1),
                   var("a", g, L) + Poly.monomial(1, g, L, b=5)
                   + Poly.monomial(Fraction(-1, 3), g, L, a=1, b=1),
                   var("b", g, L) + Poly.monomial(1, g, L, b=2)
                   + var("a", g, L))
    with pytest.raises(MapError):
        apply_map(S, old)


def test_apply_map_identity():
    rng = random.Random(10)
    S = random_regular_jet(rng)
    assert apply_map(S, PointMap.identity(REGULAR, 8)).F == S.F


def test_apply_map_identity_check_is_live(monkeypatch):
    # a product cache read by the triangular pass, with one wrong
    # coefficient: image(a) = a + 2ab instead of a + ab
    g, L = REGULAR, 8
    S = random_regular_jet(random.Random(12))
    m = PointMap(var("x"), var("y"), var("a") + Poly.monomial(1, g, L, a=1, b=1),
                 var("b"))
    assert satisfies_identity(S.F, m, apply_map(S, m).F)
    ab = mono_exps(a=1, b=1)

    class WrongProduct(Substitution):
        __slots__ = ()

        def product(self, key):
            d, items = super().product(key)
            if key != (1, 0, 0):
                return d, items
            return d, [(w, e, n + d if e == ab else n) for w, e, n in items]

    monkeypatch.setattr(surfaces, "Substitution", WrongProduct)
    with pytest.raises(SolveError,
                       match="apply_map: defining identity fails at weight 3"):
        apply_map(S, m)


def test_preliminary_reduce_examples():
    g, L = UNIT, 8
    F = (Poly.monomial(2, g, L, a=1) + Poly.monomial(3, g, L, b=1)
         + Poly.var("x", g, L) + Poly.monomial(1, g, L, b=1, x=1))
    red, pm = preliminary_reduce(SurfaceJet(F.with_grading(REGULAR, L)))
    assert red.F == (Poly.var("a", REGULAR, L)
                     + Poly.monomial(1, REGULAR, L, b=1, x=1))
    F = Poly.var("a", g, L) + Poly.monomial(2, g, L, b=1, x=1)
    red, pm = preliminary_reduce(SurfaceJet(F.with_grading(REGULAR, L)))
    assert red.F == (Poly.var("a", REGULAR, L)
                     + Poly.monomial(1, REGULAR, L, b=1, x=1))


def test_preliminary_reduce_transform_consistent():
    g, L = UNIT, 8
    F = (Poly.monomial(2, g, L, a=1) + Poly.monomial(1, g, L, x=2)
         + Poly.monomial(1, g, L, b=1, x=1)
         + Poly.monomial(1, g, L, a=1, b=1, x=1))
    S = SurfaceJet(F.with_grading(REGULAR, L))
    red, pm = preliminary_reduce(S)
    # A = 2a is not the identity plus higher weights, so apply_map refuses
    # the map; it keeps the regular filtration, so substitution checks the
    # defining identity exactly
    assert satisfies_identity(S.F, pm, red.F)


def test_preliminary_reduce_rejects_degenerate():
    g, L = REGULAR, 8
    with pytest.raises(MapError):
        # F_a(0) = 0
        preliminary_reduce(SurfaceJet(Poly.monomial(1, g, L, a=2)))
    with pytest.raises(MapError, match="origin"):
        # F(0) != 0
        preliminary_reduce(SurfaceJet(
            Poly.const(1, g, L) + Poly.var("a", g, L)
            + Poly.monomial(1, g, L, b=1, x=1)))
    with pytest.raises(MapError):
        # no mixed bx term: type > 2
        preliminary_reduce(SurfaceJet(
            Poly.var("a", g, L) + Poly.monomial(1, g, L, b=2, x=2)))


def satisfies_identity(F: Poly, pmap: PointMap, F_star: Poly) -> bool:
    """Y(x, F) == F*(A, B, X(x, F)), by substitution."""
    on_surface = {"y": F}
    return pmap.Yc.substitute(on_surface) == F_star.substitute(
        {"a": pmap.Ac, "b": pmap.Bc, "x": pmap.Xc.substitute(on_surface)})


coefs = st.fractions(min_value=-2, max_value=2, max_denominator=3)
# (k, order): the regular grading and the type-k gradings, k = 3..5
gradings = st.sampled_from([(2, 7), (3, 7), (4, 8), (5, 9)])


@st.composite
def near_identity_maps(draw, g, L: int) -> PointMap:
    """The identity plus up to two terms per component, each of weight above
    that of the component's variable."""
    comps = []
    for var, args in (("x", ("x", "y")), ("y", ("x", "y")),
                      ("a", ("a", "b")), ("b", ("a", "b"))):
        higher = [e for w in range(g.weight_of(var) + 1, L + 1)
                  for e in weighted_monomials(w, args, g)]
        c = Poly.var(var, g, L)
        for e in draw(st.lists(st.sampled_from(higher), max_size=2,
                               unique=True)):
            c = c + Poly({e: draw(coefs)}, g, L)
        comps.append(c)
    return PointMap(*comps)


@st.composite
def jets_and_maps(draw):
    k, L = draw(gradings)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if k == 2:
        g, S = REGULAR, random_regular_jet(rng, order=L, density=0.3)
    else:
        g = singular_grading(k)
        S = random_singular_jet(rng, k=k, m=draw(st.integers(1, k - 1)),
                                order=L, density=0.3)
    return S, draw(near_identity_maps(g, L)), draw(near_identity_maps(g, L))


@settings(max_examples=30, deadline=None)
@given(jets_and_maps())
def test_apply_map_identity_and_functoriality(case):
    S, m1, m2 = case
    once = apply_map(S, m1)
    assert satisfies_identity(S.F, m1, once.F)
    # the fixed point of u = Y(x, F) - (u(A, B, X(x, F)) - u), by the
    # series solver: the formulation the triangular pass replaces
    on_surface = {"y": S.F}
    y_val = m1.Yc.substitute(on_surface)
    image = {"a": m1.Ac, "b": m1.Bc, "x": m1.Xc.substitute(on_surface)}
    fixed_point = implicit_solve(lambda u: y_val - (u.substitute(image) - u),
                                 Poly.zero(S.grading, S.order), S.order)
    assert once.F == fixed_point
    twice = apply_map(once, m2)
    assert satisfies_identity(once.F, m2, twice.F)
    assert apply_map(S, m2.compose(m1)).F == twice.F


def raw_terms(draw, L: int) -> dict:
    """Full pure-x and pure-b series from degree 2, an a coefficient other
    than 1, and a b and a b^2 terms: the shapes that make a reduction by
    repeated absorption sweep more than once."""
    nonzero = coefs.filter(lambda c: c != 0)
    terms = {mono_exps(a=1): draw(nonzero), mono_exps(a=1, b=1): draw(coefs),
             mono_exps(a=1, b=2): draw(coefs)}
    for d in range(2, L + 1):
        terms[mono_exps(x=d)] = draw(coefs)
        terms[mono_exps(b=d)] = draw(coefs)
    return terms


def assert_reduced_shape(F: Poly, m: int, n: int):
    assert F.set_zero("a", "b").is_zero()        # no pure-x series
    assert F.set_zero("a", "x").is_zero()        # no pure-b series
    assert F.coeff(mono_exps(a=1)) == 1
    assert F.coeff(mono_exps(b=m, x=n)) == 1


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_preliminary_reduce_raw_regular_jet(data):
    g, L = REGULAR, 8
    terms = raw_terms(data.draw, L)
    terms[mono_exps(b=1, x=1)] = data.draw(coefs.filter(lambda c: c != 0))
    for w in range(3, L + 1):
        for e in weighted_monomials(w, ("a", "b", "x"), g):
            if e[2] and data.draw(st.booleans()):
                terms[e] = data.draw(coefs)
    S = SurfaceJet(Poly(terms, g, L))
    red, pm = preliminary_reduce(S)
    assert_reduced_shape(red.F, 1, 1)
    assert red.f_regular().up_to_weight(2).is_zero()
    # pure series from weight 2 keep the regular filtration
    assert satisfies_identity(S.F, pm, red.F)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_prelim_reduce_singular_raw_jet(data):
    k = data.draw(st.integers(3, 5))
    m = data.draw(st.integers(1, k - 1))
    n = k - m
    # the type-k maps lower weights (A = a + b^2 + ...), so the identity is
    # checked in the unit grading through degree D, where the type-k
    # truncation at order k D keeps every term
    D = 3
    L = k * D
    terms = raw_terms(data.draw, L)
    lead = data.draw(coefs.filter(lambda c: c != 0))
    terms[mono_exps(b=m, x=n)] = lead
    raw_gammas = [data.draw(coefs) for _ in range(m + 1, k)]
    for j, c in zip(range(m + 1, k), raw_gammas):
        terms[mono_exps(b=j, x=k - j)] = c
    for j in range(1, L):
        for l in range(1, L - j + 1):
            if j + l > k and data.draw(st.booleans()):
                terms[mono_exps(b=j, x=l)] = data.draw(coefs)
    F = Poly(terms, UNIT, L)
    red, pm, t = prelim_reduce_singular(SurfaceJet(F))
    assert (t.k, t.m, t.n) == (k, m, n)
    # the scaling of b (m = 1) or of y and a (m > 1) sets the lead to 1
    assert t.gammas == tuple(c / lead ** j if m == 1 else c / lead
                             for j, c in zip(range(m + 1, k), raw_gammas))
    assert_reduced_shape(red.F, m, n)
    g = singular_grading(k)
    assert red.f_part(t.model(g, L)).up_to_weight(k).is_zero()
    assert satisfies_identity(F.with_order(D), pm.with_grading(UNIT, D),
                              red.F.with_grading(UNIT, D))
