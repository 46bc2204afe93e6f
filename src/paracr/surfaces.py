"""Surface jets y = F(a, b, x), product-preserving point maps, and the exact
transformation of a jet under a map.

Maps respect the product structure: (X, Y) depend only on (x, y) and (A, B)
only on (a, b).  Applying a map to a jet is done by series inversion and an
implicit solve.  A map that keeps the weight filtration of the jet's grading
(every near-identity normalization step does) is applied in that grading; one
that breaks it, such as the preliminary A = ga a + pb(b), is applied in the
unit (total-degree) grading, where every origin-preserving map keeps the
filtration, and the result is re-truncated in the jet's own grading.

The regular and singular cases share two procedures built on `apply_map`:
the preliminary reduction `_preliminary` and the weight-by-weight
normalization loop `_normalize_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import cmoperator as cm
from .poly import Poly, Grading, UNIT, VAR_INDEX, mono_exps
from .series import SolveError, implicit_solve


@dataclass(frozen=True)
class SurfaceJet:
    """Defining function F(a, b, x), truncated at weight `order` of its
    grading."""

    F: Poly

    def __post_init__(self):
        if not self.F.variables() <= {"a", "b", "x"}:
            raise ValueError("a defining function depends on (a, b, x) only")

    @property
    def grading(self) -> Grading:
        return self.F.grading

    @property
    def order(self) -> int:
        return self.F.order

    def f_part(self, model: Poly) -> Poly:
        """F minus (a + model); the deformation part."""
        return self.F - Poly.var("a", self.grading, self.order) - model

    def f_regular(self) -> Poly:
        g, L = self.grading, self.order
        return self.F - Poly.var("a", g, L) - Poly.monomial(1, g, L, b=1, x=1)

    def __str__(self):
        return str(self.F)


@dataclass(frozen=True)
class PointMap:
    """(x, y, a, b) -> (X, Y, A, B) with Xc, Yc in (x, y) and Ac, Bc in
    (a, b); origin-preserving with invertible linear part."""

    Xc: Poly
    Yc: Poly
    Ac: Poly
    Bc: Poly

    def __post_init__(self):
        if not self.Xc.variables() <= {"x", "y"} or not self.Yc.variables() <= {"x", "y"}:
            raise ValueError("X, Y must depend on (x, y) only")
        if not self.Ac.variables() <= {"a", "b"} or not self.Bc.variables() <= {"a", "b"}:
            raise ValueError("A, B must depend on (a, b) only")
        for c in (self.Xc, self.Yc, self.Ac, self.Bc):
            if c.constant_term() != 0:
                raise ValueError("point maps must preserve the origin")

    @classmethod
    def identity(cls, grading: Grading, order: int) -> "PointMap":
        return cls(Poly.var("x", grading, order), Poly.var("y", grading, order),
                   Poly.var("a", grading, order), Poly.var("b", grading, order))

    def is_identity(self) -> bool:
        g, L = self.Xc.grading, self.Xc.order
        return self == PointMap.identity(g, L)

    def components(self) -> dict:
        return {"X": self.Xc, "Y": self.Yc, "A": self.Ac, "B": self.Bc}

    def with_grading(self, grading: Grading, order: int) -> "PointMap":
        return PointMap(*(c.with_grading(grading, order) for c in
                          (self.Xc, self.Yc, self.Ac, self.Bc)))

    def to_unit(self, order: int) -> "PointMap":
        return self.with_grading(UNIT, order)

    def compose(self, first: "PointMap") -> "PointMap":
        """self after `first` (as maps of the space)."""
        sub_xy = {"x": first.Xc, "y": first.Yc}
        sub_ab = {"a": first.Ac, "b": first.Bc}
        return PointMap(self.Xc.substitute(sub_xy, strict=False),
                        self.Yc.substitute(sub_xy, strict=False),
                        self.Ac.substitute(sub_ab, strict=False),
                        self.Bc.substitute(sub_ab, strict=False))


class MapError(ValueError):
    pass


def invert_pair(P: Poly, Q: Poly, variables: tuple) -> tuple:
    """Inverse of the 2-variable map (u, v) -> (P(u, v), Q(u, v)) with
    invertible linear part, as series in the same two variable names.
    Computed in the grading of the inputs: the truncation grows one weight
    per sweep, and a last sweep at full order must reproduce its input."""
    v1, v2 = variables
    m11 = P.coeff(mono_exps(**{v1: 1}))
    m12 = P.coeff(mono_exps(**{v2: 1}))
    m21 = Q.coeff(mono_exps(**{v1: 1}))
    m22 = Q.coeff(mono_exps(**{v2: 1}))
    det = m11 * m22 - m12 * m21
    if det == 0:
        raise MapError("map has a singular linear part")
    i11, i12, i21, i22 = m22 / det, -m12 / det, -m21 / det, m11 / det
    g, L = P.grading, min(P.order, Q.order)
    t1, t2 = Poly.var(v1, g, L), Poly.var(v2, g, L)
    h1 = P - t1 * m11 - t2 * m12
    h2 = Q - t1 * m21 - t2 * m22

    def sweep(s1: Poly, s2: Poly) -> tuple:
        subs = {v1: s1, v2: s2}
        r1 = t1 - h1.substitute(subs, strict=False)
        r2 = t2 - h2.substitute(subs, strict=False)
        return r1 * i11 + r2 * i12, r1 * i21 + r2 * i22

    # h1, h2 have no linear part and every weight is >= 1, so the weight-w
    # part of a sweep only reads weights < w of its input: a state exact
    # through weight w - 1 comes out exact through w.
    state = (t1 * i11 + t2 * i12, t1 * i21 + t2 * i22)
    for w in range(1, L + 1):
        state = sweep(state[0].with_order(w), state[1].with_order(w))
    if sweep(*state) != state:
        raise SolveError("series inversion did not converge")
    return state


def _respects_filtration(surface: SurfaceJet, pmap: PointMap) -> bool:
    """True when the map and the surface's y = F keep the weight filtration
    of the jet's grading: each substituted series has weighted order at least
    the weight of the variable it replaces."""
    g = surface.grading
    if pmap.Xc.grading != g:
        return False
    pairs = (("x", pmap.Xc), ("y", pmap.Yc), ("a", pmap.Ac), ("b", pmap.Bc),
             ("y", surface.F))
    for var, series in pairs:
        mw = series.min_weight()
        if mw is not None and mw < g.weight_of(var):
            return False
    return True


def apply_map(surface: SurfaceJet, pmap: PointMap) -> SurfaceJet:
    """Transform y = F(a, b, x) by the map; returns the new jet F* with
    Y = F*(A, B, X) on the image.  The defining identity is re-checked by
    full substitution before returning.

    Computed in the jet's own grading when the map respects its weight
    filtration, and otherwise in the unit grading (truncation by total
    degree), where every origin-preserving map does."""
    g, L = surface.grading, surface.order
    h = g if _respects_filtration(surface, pmap) else UNIT
    F = surface.F.with_grading(h, L)
    m = pmap.with_grading(h, L)

    ua, ub = invert_pair(m.Ac, m.Bc, ("a", "b"))
    ux, uy = invert_pair(m.Xc, m.Yc, ("x", "y"))

    d = uy.coeff(mono_exps(y=1))
    uy_rest = uy - Poly.var("y", h, L) * d
    inv_d = Fraction(1) / d
    F_ab = F.substitute({"a": ua, "b": ub}, strict=False)

    def rhs(u: Poly) -> Poly:
        x_old = ux.substitute({"y": u}, strict=False)
        f_val = F_ab.substitute({"x": x_old}, strict=False)
        return (f_val - uy_rest.substitute({"y": u}, strict=False)) * inv_d

    u = implicit_solve(rhs, Poly.zero(h, L), L)

    # verify: Yc(x, F) == u(Ac, Bc, Xc(x, F)) identically at order L
    on_surface = {"y": F}
    lhs = m.Yc.substitute(on_surface, strict=False)
    rhs_check = u.substitute({"a": m.Ac, "b": m.Bc,
                              "x": m.Xc.substitute(on_surface, strict=False)},
                             strict=False)
    if lhs != rhs_check:
        raise SolveError("apply_map: transformed equation failed verification")
    return SurfaceJet(u.with_grading(g, L))


def _pure_series(F: Poly, var: str) -> Poly:
    """The part of F supported on powers of a single variable (degree >= 1)."""
    i = VAR_INDEX[var]
    return Poly({exps: c for exps, c in F.terms.items()
                 if exps[i] >= 1 and sum(exps) == exps[i]}, F.grading, F.order)


def _preliminary(surface: SurfaceJet, leading) -> tuple:
    """The preliminary reduction shared by the regular and singular cases,
    computed in the unit grading, where its maps keep the filtration.

    Kills the pure-x and pure-b series and scales a to coefficient 1.  Then
    `leading(F)` names the leading mixed monomial b^m x^n of the result, or
    raises if F has the wrong shape, and its coefficient c is scaled to 1:
    by b* = c b when m = 1.  For m > 1 the b-scaling alone cannot reach 1
    over the rationals; y* = y/c, a* = a/c divides the whole bottom row by c.
    Returns (F, map, (m, n)) with F and the map in the unit grading.
    """
    L = surface.order
    F = surface.F.with_grading(UNIT, L)
    if F.coeff(mono_exps(a=1)) == 0:
        raise MapError("not a graph over a: F_a(0) = 0")
    total = PointMap.identity(UNIT, L)
    x, y, a, b = (Poly.var(v, UNIT, L) for v in "xyab")

    def apply(step: PointMap):
        nonlocal F, total
        F = apply_map(SurfaceJet(F), step).F
        total = step.compose(total)

    for _ in range(L + 2):
        px, pb = _pure_series(F, "x"), _pure_series(F, "b")
        ga = F.coeff(mono_exps(a=1))
        if px.is_zero() and pb.is_zero() and ga == 1:
            break
        apply(PointMap(x, y - px, a * ga + pb, b))
    else:
        raise SolveError("preliminary reduction did not terminate")

    m, n = leading(F)
    c = F.coeff(mono_exps(b=m, x=n))
    if c != 1:
        if m == 1:
            apply(PointMap(x, y, a, b * c))
        else:
            inv = Fraction(1) / Fraction(c.numerator, c.denominator)
            apply(PointMap(x, y * inv, a * inv, b))
    return F, total, (m, n)


def preliminary_reduce(surface: SurfaceJet) -> tuple:
    """Reduce a regular (type 2) jet to the shape a + bx + (weight >= 3).

    Kills pure-x and pure-b series, scales a to coefficient 1 and bx to
    coefficient 1.  Raises MapError if F_a(0) = 0, or if the jet is not of
    type 2 (no bx term after reduction; use the singular reduction instead).
    """
    def leading(F: Poly) -> tuple:
        if F.coeff(mono_exps(b=1, x=1)) == 0:
            raise MapError("jet is not of type 2; use the singular reduction")
        return 1, 1

    g, L = surface.grading, surface.order
    F, total, _ = _preliminary(surface, leading)
    reduced = SurfaceJet(F.with_grading(g, L))
    if not reduced.f_regular().up_to_weight(2).is_zero():
        raise SolveError("preliminary reduction left weight-2 contamination")
    return reduced, total.with_grading(g, L)


def _normalize_weights(surface: SurfaceJet, model: Poly, complement,
                       component_order: tuple) -> tuple:
    """Weight-by-weight normal form against the graded operator of the model
    y = a + model, shared by the regular and singular cases.

    At each weight nu above the grading's type k, `cm.decompose` splits the
    weight-nu part of F - a - model into the operator's image and a part on
    the monomials `complement(nu)`, pivoting on the field components in
    `component_order`.  The field that removes the image part is applied as
    a near-identity map, and the new weight-nu part must equal the predicted
    normal part.  Returns (normalized jet, map, eliminated monomials by
    weight).
    """
    g, L = surface.grading, surface.order
    current = surface
    transform = PointMap.identity(g, L)
    eliminated: dict = {}
    for nu in range(g.type_k + 1, L + 1):
        p_nu = current.f_part(model).component(nu)
        if p_nu.is_zero():
            continue
        v, normal = cm.decompose(p_nu, complement(nu), g, model,
                                 component_order)
        if v.is_zero():
            continue
        step = PointMap(Poly.var("x", g, L) + v.xi.with_order(L),
                        Poly.var("y", g, L) + v.eta.with_order(L),
                        Poly.var("a", g, L) + v.alpha.with_order(L),
                        Poly.var("b", g, L) + v.beta.with_order(L))
        current = apply_map(current, step)
        transform = step.compose(transform)
        eliminated[nu] = sorted((p_nu - normal).terms)
        if current.f_part(model).component(nu) != normal:
            raise RuntimeError(f"normalization at weight {nu} disagrees with "
                               "the linear prediction")
    return current, transform, eliminated
