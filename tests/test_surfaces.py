import random
from fractions import Fraction

import pytest

from paracr.poly import Poly, REGULAR, UNIT, singular_grading
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
        assert P.substitute({"x": ux, "y": uy}, strict=False) == x
        assert Q.substitute({"x": ux, "y": uy}, strict=False) == y


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
    # a near-identity map that keeps the type-5 filtration is applied in the
    # type-5 grading; the unit-grading computation is the reference
    k, L = 5, 11
    g = singular_grading(k)
    rng = random.Random(11)
    M = PointMap(var("x", g, L) + Poly.monomial(Fraction(1, 2), g, L, x=2)
                 + Poly.monomial(-1, g, L, y=1),
                 var("y", g, L) + Poly.monomial(2, g, L, x=5)
                 + Poly.monomial(1, g, L, x=1, y=1),
                 var("a", g, L) + Poly.monomial(1, g, L, b=5)
                 + Poly.monomial(Fraction(-1, 3), g, L, a=1, b=1),
                 var("b", g, L) + Poly.monomial(1, g, L, b=2)
                 + var("a", g, L))
    for c, v in zip((M.Xc, M.Yc, M.Ac, M.Bc), "xyab"):
        assert c.min_weight() >= g.weight_of(v)
    for m in (1, 2):
        S = random_singular_jet(rng, k=k, m=m, order=L)
        unit = apply_map(SurfaceJet(S.F.with_grading(UNIT, L)), M.to_unit(L))
        assert apply_map(S, M).F == unit.F.with_grading(g, L)


def test_apply_map_identity():
    rng = random.Random(10)
    S = random_regular_jet(rng)
    assert apply_map(S, PointMap.identity(REGULAR, 8)).F == S.F


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
    assert apply_map(S, pm).F == red.F


def test_preliminary_reduce_rejects_degenerate():
    g, L = REGULAR, 8
    with pytest.raises(MapError):
        # F_a(0) = 0
        preliminary_reduce(SurfaceJet(Poly.monomial(1, g, L, a=2)))
    with pytest.raises(MapError):
        # no mixed bx term: type > 2
        preliminary_reduce(SurfaceJet(
            Poly.var("a", g, L) + Poly.monomial(1, g, L, b=2, x=2)))
