"""Normalization of regular (type 2) surface jets.

Two routes to the same normal form conditions:

* `normalize_jet` runs the order-by-order elimination: at each weight the
  eliminable part of the jet is removed using the graded operator and the
  retained part lands on the complement monomials.

* `geometric_normalize` runs the chain-based construction: straighten a
  distinguished curve, flatten the traces on {b=0} and {x=0}, then solve
  scalar series ODEs for the scaling and reparametrisation that kill the
  remaining low (b, x)-bidegree coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import cmoperator as cm
from .poly import Poly, REGULAR
from .series import SolveError, implicit_solve, ode_solve, reciprocal, divide, \
    sqrt_unit, reverse_univariate
from .surfaces import SurfaceJet, PointMap, apply_map, _normalize_weights


CONDITION_KEYS = ("i", "ii", "iii", "iv", "v")


@dataclass
class NormalFormReport:
    normalized: SurfaceJet
    transform: PointMap
    eliminated_by_weight: dict = field(default_factory=dict)
    conditions: dict = field(default_factory=dict)

    @property
    def conditions_ok(self) -> bool:
        return all(self.conditions.get(k, False) for k in CONDITION_KEYS)


def check_normal_conditions(surface: SurfaceJet) -> dict:
    """The five normal form conditions, evaluated on the truncated jet.

    (i)  every monomial of f has b-degree >= 1 and x-degree >= 1
    (ii) b-degree >= 2 and x-degree >= 2
    (iii)-(v) the (b, x)-bidegree (2,2), (3,2)/(2,3) and (3,3) coefficient
    series in a all vanish.
    """
    f = surface.f_regular()
    ib, ix = 1, 2  # VAR indices of b and x in the exponent tuples
    cond = {k: True for k in CONDITION_KEYS}
    for exps in f.terms:
        j, l = exps[ib], exps[ix]
        if j < 1 or l < 1:
            cond["i"] = False
        if j < 2 or l < 2:
            cond["ii"] = False
        if (j, l) == (2, 2):
            cond["iii"] = False
        if (j, l) in ((3, 2), (2, 3)):
            cond["iv"] = False
        if (j, l) == (3, 3):
            cond["v"] = False
    return cond


def is_normal(surface: SurfaceJet) -> bool:
    return all(check_normal_conditions(surface).values())


def _require_preliminary(surface: SurfaceJet):
    if surface.grading != REGULAR:
        raise ValueError("regular normalization expects the regular grading")
    if not surface.f_regular().up_to_weight(2).is_zero():
        raise ValueError("jet is not in preliminary form a + bx + (weight >= 3)")


def normalize_jet(surface: SurfaceJet) -> NormalFormReport:
    """Weight-by-weight normal form of a preliminary-reduced regular jet."""
    _require_preliminary(surface)
    current, transform, eliminated = _normalize_weights(
        surface, cm.model_poly(surface.grading, surface.order),
        cm.normal_complement_monomials)
    return NormalFormReport(normalized=current, transform=transform,
                            eliminated_by_weight=eliminated,
                            conditions=check_normal_conditions(current))


# ---------------------------------------------------------------------------
# geometric construction
# ---------------------------------------------------------------------------


@dataclass
class ChainData:
    p: Poly
    pi: Poly
    q: Poly
    psi: Poly


def _a_of_xy(f: Poly) -> Poly:
    """Solve y = a + f(a, 0, x) for a as a series in (x, y)."""
    g, L = f.grading, f.order
    y = Poly.var("y", g, L)
    f0 = f.set_zero("b")

    def rhs(s: Poly) -> Poly:
        return y - f0.substitute({"a": s})

    return implicit_solve(rhs, y, L)


def _subst_var(series_in_a: Poly, var: str) -> Poly:
    """Rename a in a univariate series to y (or a), of the same weight."""
    g, L = series_in_a.grading, series_in_a.order
    return series_in_a.substitute({"a": Poly.var(var, g, L)})


def _step2(f: Poly) -> PointMap:
    g, L = f.grading, f.order
    # the pure-a series sits in both traces; the Y shift absorbs it, so the
    # A shift must leave it out or the two corrections cancel to a sign flip
    h = f.set_zero("x") - f.set_zero("b", "x")
    a_xy = _a_of_xy(f)
    gxy = -(f.set_zero("b").substitute({"a": a_xy}))
    return PointMap(Poly.var("x", g, L), Poly.var("y", g, L) + gxy,
                    Poly.var("a", g, L) + h, Poly.var("b", g, L))


def _step3(f: Poly) -> PointMap:
    g, L = f.grading, f.order
    fbx = f.partial("b").partial("x").with_order(L).set_zero("b", "x")
    C = reciprocal(Poly.const(1, g, L) + fbx)
    return PointMap(Poly.var("x", g, L), Poly.var("y", g, L),
                    Poly.var("a", g, L), Poly.var("b", g, L) * C)


def _step4(f: Poly) -> PointMap:
    g, L = f.grading, f.order
    fx0 = f.partial("x").with_order(L).set_zero("x")
    return PointMap(Poly.var("x", g, L), Poly.var("y", g, L),
                    Poly.var("a", g, L), Poly.var("b", g, L) + fx0)


def _step5(f: Poly) -> PointMap:
    g, L = f.grading, f.order
    fb0 = f.partial("b").with_order(L).set_zero("b")
    a_xy = _a_of_xy(f)
    return PointMap(Poly.var("x", g, L) + fb0.substitute({"a": a_xy}),
                    Poly.var("y", g, L), Poly.var("a", g, L), Poly.var("b", g, L))


def _step6(f: Poly, target: Poly | None = None) -> PointMap:
    """Scaling B = C(a) b, X = x / C(y) with C'/C = -(f22 - target).
    With the default target 0 this kills the (2,2) coefficient."""
    g, L = f.grading, f.order
    f22 = f.coeff_series(b=2, x=2)
    rhs_series = f22 if target is None else f22 - target

    def ode_rhs(derivs, t):
        return -rhs_series * derivs[0]

    C = ode_solve(1, ode_rhs, [Fraction(1)], "a", g, L)
    C_y = _subst_var(C, "y")
    return PointMap(Poly.var("x", g, L) * reciprocal(C_y), Poly.var("y", g, L),
                    Poly.var("a", g, L), Poly.var("b", g, L) * C)


def _step7(f: Poly) -> PointMap:
    """Reparametrisation killing the (3,3) coefficient, from the third-order
    series ODE for h with h(0)=0, h'(0)=1 (h''(0) fixed to 0)."""
    g, L = f.grading, f.order
    c33 = f.coeff_series(b=3, x=3) * 36  # f_bbbxxx(a,0,0)

    def ode_rhs(derivs, t):
        h0, h1, h2 = derivs
        return divide(h2 * h2, h1) * Fraction(3, 2) - c33 * Fraction(1, 3)

    h = ode_solve(3, ode_rhs, [Fraction(0), Fraction(1), Fraction(0)], "a", g, L)
    hinv = reverse_univariate(h, "a")
    hp = h.partial("a").with_order(L)
    root_a = sqrt_unit(hp.substitute({"a": hinv}))
    root_y = _subst_var(root_a, "y")
    return PointMap(Poly.var("x", g, L) * reciprocal(root_y),
                    _subst_var(hinv, "y"),
                    _subst_var(hinv, "a"),
                    Poly.var("b", g, L) * reciprocal(root_a))


def solve_chain(f: Poly) -> ChainData:
    """Solve the chain equations p'' - (p')^2 pi' = 2 f32,
    pi'' + (pi')^2 p' = 2 f23 with zero initial data, then the
    parametrisation q' = 1 + p' pi and the on-surface constraint for psi."""
    g, L = f.grading, f.order
    f32 = f.coeff_series(b=3, x=2) * 2
    f23 = f.coeff_series(b=2, x=3) * 2
    t = Poly.var("a", g, L)
    p = Poly.zero(g, L)
    pi = Poly.zero(g, L)
    for n in range(2, L // 2 + 1):
        dp = p.partial("a").with_order(L)
        dpi = pi.partial("a").with_order(L)
        rhs_p = f32 + dp * dp * dpi
        rhs_pi = f23 - dpi * dpi * dp
        p = p + rhs_p.coeff_series(a=n - 2) * Fraction(1, n * (n - 1)) * t ** n
        pi = pi + rhs_pi.coeff_series(a=n - 2) * Fraction(1, n * (n - 1)) * t ** n
    dp = p.partial("a").with_order(L)
    q = (Poly.const(1, g, L) + dp * pi).integrate("a").with_order(L)

    def psi_rhs(s: Poly) -> Poly:
        return q - pi * p - f.substitute({"a": s, "b": pi, "x": p})

    psi = implicit_solve(psi_rhs, q, L)
    return ChainData(p=p, pi=pi, q=q, psi=psi)


def chain_map(chain: ChainData, grading, order: int) -> PointMap:
    """Closed form of the chain-straightening map."""
    g, L = grading, order
    x = Poly.var("x", g, L)
    b = Poly.var("b", g, L)
    one = Poly.const(1, g, L)
    p_y = _subst_var(chain.p, "y")
    pi_y = _subst_var(chain.pi, "y")
    q_y = _subst_var(chain.q, "y")
    dpi_y = _subst_var(chain.pi.partial("a").with_order(L), "y")
    dp_a = chain.p.partial("a").with_order(L)
    inv_x = reciprocal(one - x * dpi_y)
    inv_b = reciprocal(one + b * dp_a)
    return PointMap(p_y + x * inv_x,
                    q_y + x * pi_y * inv_x,
                    chain.psi - b * chain.p * inv_b,
                    chain.pi + b * inv_b)


def geometric_normalize(surface: SurfaceJet) -> NormalFormReport:
    """Chain-based normalization of a preliminary-reduced regular jet.

    The construction steps each kill their target coefficient while only
    disturbing strictly higher weights, so sweeping them repeatedly converges
    at jet level; the loop stops as soon as all five conditions hold, and
    gives up after L + 2 passes.
    """
    _require_preliminary(surface)
    g, L = surface.grading, surface.order
    current = surface
    transform = PointMap.identity(g, L)

    def apply(step: PointMap):
        nonlocal current, transform
        current = apply_map(current, step)
        transform = step.compose(transform)

    for _ in range(L + 2):
        if is_normal(current):
            break
        f = current.f_regular()
        apply(_step2(f))
        apply(_step3(current.f_regular()))
        apply(_step4(current.f_regular()))
        apply(_step5(current.f_regular()))
        f = current.f_regular()
        chain = solve_chain(f)
        if chain.p.is_zero() and chain.pi.is_zero():
            apply(_step6(f))
        else:
            dp = chain.p.partial("a").with_order(L)
            dpi = chain.pi.partial("a").with_order(L)
            target = dp * dpi * Fraction(-3, 2)
            apply(_step6(f, target))
            apply(chain_map(chain, g, L))
        apply(_step7(current.f_regular()))
    else:
        raise SolveError("geometric normalization did not reach normal form "
                         f"within {L + 2} passes")
    return NormalFormReport(normalized=current, transform=transform,
                            conditions=check_normal_conditions(current))
