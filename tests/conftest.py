"""Shared generators for randomized tests.  Everything is seeded by the
caller, so failures reproduce exactly."""

import random
from fractions import Fraction

from paracr import cmoperator as cm
from paracr.cmoperator import weighted_monomials
from paracr.poly import Poly, REGULAR, UNIT, singular_grading
from paracr.series import SolveError
from paracr.surfaces import PointMap, SurfaceJet, _compose_steps, apply_map


def sweep_solve(rhs, seed, order: int):
    """Oracle for `implicit_solve`: s = rhs(s) by growing sweeps.  The state
    is a Poly or a tuple of Polys.  With s exact through weight w - 1, a
    contraction makes rhs(s) exact through w, and each sweep runs at
    truncation w; a last sweep at `order` must reproduce its input."""
    def trunc(s, w):
        if isinstance(s, Poly):
            return s.with_order(w)
        return tuple(c.with_order(w) for c in s)

    s = trunc(seed, 0)
    for w in range(1, order + 1):
        s = trunc(rhs(trunc(s, w)), w)
    s = trunc(s, order)
    if trunc(rhs(s), order) != s:
        raise SolveError("growing sweeps did not converge")
    return s


def random_regular_jet(rng: random.Random, order: int = 8,
                       density: float = 0.4) -> SurfaceJet:
    """a + bx + random rational terms of weight 3..order."""
    g = REGULAR
    F = Poly.var("a", g, order) + Poly.monomial(1, g, order, b=1, x=1)
    for nu in range(3, order + 1):
        for exps in weighted_monomials(nu, ("a", "b", "x"), g):
            if rng.random() < density:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                F = F + Poly({exps: c}, g, order)
    return SurfaceJet(F)


def random_singular_jet(rng: random.Random, k: int, m: int,
                        order: int | None = None,
                        density: float = 0.35) -> SurfaceJet:
    """a + b^m x^n + random bottom-row and higher terms, type-k grading."""
    if order is None:
        order = k + 6
    g = singular_grading(k)
    n = k - m
    F = Poly.var("a", g, order) + Poly.monomial(1, g, order, b=m, x=n)
    for j in range(m + 1, k):
        F = F + Poly.monomial(Fraction(rng.randint(-2, 2)), g, order,
                              b=j, x=k - j)
    for nu in range(k + 1, order + 1):
        for exps in weighted_monomials(nu, ("a", "b", "x"), g):
            if rng.random() < density:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                F = F + Poly({exps: c}, g, order)
    return SurfaceJet(F)


def random_ode_jet(rng: random.Random, order: int = 6,
                   density: float = 0.25):
    """Random right-hand side B(x, y, p) of total degree <= order."""
    from paracr.odebridge import OdeJet

    B = Poly.zero(UNIT, order)
    for w in range(order + 1):
        for exps in weighted_monomials(w, ("x", "y", "p"), UNIT):
            if rng.random() < density:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                B = B + Poly({exps: c}, UNIT, order)
    return OdeJet(B)


def stepwise_normalize(surface: SurfaceJet, model: Poly, complement):
    """Oracle for `surfaces._normalize_weights`: the jet transformed by
    `apply_map` after every step, the new weight-nu part checked against the
    linear prediction, and the steps composed at the end by
    `_compose_steps`."""
    g, L = surface.grading, surface.order
    current = surface
    steps = []
    eliminated: dict = {}
    for nu in range(g.type_k + 1, L + 1):
        p_nu = current.f_part(model).component(nu)
        if p_nu.is_zero():
            continue
        v, normal = cm.decompose(p_nu, complement(nu), g, model)
        if v.is_zero():
            continue
        step = PointMap(Poly.var("x", g, L) + v.xi.with_order(L),
                        Poly.var("y", g, L) + v.eta.with_order(L),
                        Poly.var("a", g, L) + v.alpha.with_order(L),
                        Poly.var("b", g, L) + v.beta.with_order(L))
        current = apply_map(current, step)
        steps.append(step)
        eliminated[nu] = sorted((p_nu - normal).terms)
        if current.f_part(model).component(nu) != normal:
            raise RuntimeError(f"normalization at weight {nu} disagrees with "
                               "the linear prediction")
    return current, _compose_steps(steps, g, L), eliminated
