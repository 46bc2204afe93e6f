"""Surface jets y = F(a, b, x), product-preserving point maps, and the exact
transformation of a jet under a map.

Maps respect the product structure: (X, Y) depend only on (x, y) and (A, B)
only on (a, b).  A jet is normalized in two stages, in the manner of
Chern-Moser.  The preliminary reduction `_preliminary` absorbs the pure
series and scales the leading coefficients in closed form, in the unit
(total-degree) grading.  Every later step is a map whose weight-preserving
part is the identity in the jet's own grading, and `apply_map` accepts only
such maps: one triangular pass over a shared `Substitution` solves the
defining identity Y(x, F) = F*(A, B, X(x, F)), and an independent
re-substitution checks it.

The regular and singular cases share `_preliminary` and the weight-by-weight
normalization loop `_normalize_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import cmoperator as cm
from .poly import Poly, Grading, Substitution, UNIT, mono_exps
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

    def compose(self, first: "PointMap") -> "PointMap":
        """self after `first` (as maps of the space), in their grading;
        SubstitutionError if `first` lowers weights there."""
        g = self.Xc.grading
        xy = Substitution({"x": first.Xc, "y": first.Yc}, g,
                          max(self.Xc.order, self.Yc.order))
        ab = Substitution({"a": first.Ac, "b": first.Bc}, g,
                          max(self.Ac.order, self.Bc.order))
        return PointMap(xy(self.Xc), xy(self.Yc), ab(self.Ac), ab(self.Bc))


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
        r1 = t1 - h1.substitute(subs)
        r2 = t2 - h2.substitute(subs)
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


def apply_map(surface: SurfaceJet, pmap: PointMap) -> SurfaceJet:
    """Transform y = F(a, b, x) by a near-identity map; returns the new jet
    F* with Y = F*(A, B, X) on the image.

    The map must be in the jet's grading, each component minus its variable
    must have weighted order above that variable's weight, and F must have
    weighted order at least the weight of y; otherwise MapError.  Then
    image(e) = e(A, B, X(x, F)) is e plus heavier terms, and one triangular
    pass fixes F* weight by weight: its weight-w part is that of Y(x, F)
    less c (image(e) - e) for each term c e fixed at a lighter weight, read
    from the product cache of one `Substitution`.  A fresh substitution then
    re-checks Y(x, F) = F*(A, B, X(x, F)) at the jet's order, or SolveError.
    """
    g, L = surface.grading, surface.order
    if any(c.grading != g for c in pmap.components().values()):
        raise MapError("apply_map: the map is not in the jet's grading")
    m = pmap.with_grading(g, L)
    for var, c in zip("xyab", (m.Xc, m.Yc, m.Ac, m.Bc)):
        mw = (c - Poly.var(var, g, L)).min_weight()
        if mw is not None and mw <= g.weight_of(var):
            raise MapError(f"apply_map: the {var}-component is not the identity "
                           f"plus terms of weight > {g.weight_of(var)}")
    F = surface.F
    mw = F.min_weight()
    if mw is not None and mw < g.weight_of("y"):
        raise MapError(f"apply_map: F has weighted order {mw} < "
                       f"{g.weight_of('y')}, the weight of y")
    on_surface = Substitution({"y": F}, g, L)
    y_val = on_surface(m.Yc)
    subs = {"a": m.Ac, "b": m.Bc, "x": on_surface(m.Xc)}
    image = Substitution(subs, g, L)
    # Y(x, F) less c (image(e) - e) for each term c e of F* fixed so far,
    # as integer numerators over the common denominator D
    D, items = y_val._integer_items()
    rest = {e: n for _, e, n in items}
    solved: dict = {}
    for w in range(L + 1):
        fixed = [(e, Fraction(n, D)) for e, n in rest.items() if n and g.weight(e) == w]
        solved.update(fixed)
        if w == L or not fixed:
            continue
        # F* is a series in the substituted variables (a, b, x)
        batch = [(c, image.product(e[:3])) for e, c in fixed]
        den = lcm(D, *(c.denominator * d for c, (d, _) in batch))
        if den != D:
            rest = {e: n * (den // D) for e, n in rest.items()}
            D = den
        for c, (d, items) in batch:
            scale = c.numerator * (D // (c.denominator * d))
            for pw, pe, n in items:
                if pw > w:
                    rest[pe] = rest.get(pe, 0) - scale * n
    F_star = Poly._raw(solved, g, L)
    residual = y_val - F_star.substitute(subs)
    if not residual.is_zero():
        raise SolveError("apply_map: defining identity fails at weight "
                         f"{residual.min_weight()}")
    return SurfaceJet(F_star)


def _preliminary(surface: SurfaceJet, leading) -> tuple:
    """The preliminary reduction shared by the regular and singular cases,
    in closed form in the unit grading, where its maps keep the filtration.

    With ga = F_a(0), P(x) = F(0, 0, x) and a0(b) the root of
    F(a0(b), b, 0) = 0, the map (x, y - P, ga (a - a0(b)), b) takes F to
    F* = F(a/ga + a0(b), b, x) - P(x), which has no pure-x or pure-b series
    and coefficient 1 on a.  Then `leading(F*)` names the leading mixed
    monomial b^m x^n, or raises if F* has the wrong shape, and its
    coefficient c is scaled to 1: by b* = c b when m = 1.  For m > 1 the
    b-scaling alone cannot reach 1 over the rationals; y* = y/c, a* = a/c
    divides the whole bottom row by c.  Both the shape and the defining
    identity Y(x, F) = F*(A, B, X(x, F)) are re-checked exactly.
    Returns (F*, map, (m, n)) with F* and the map in the unit grading.
    """
    L = surface.order
    F = surface.F.with_grading(UNIT, L)
    ga = F.coeff(mono_exps(a=1))
    if ga == 0:
        raise MapError("not a graph over a: F_a(0) = 0")
    if F.constant_term() != 0:
        raise MapError("the surface does not pass through the origin: F(0) != 0")
    x, y, a, b = (Poly.var(v, UNIT, L) for v in "xyab")
    P = F.set_zero("a", "b")
    # a0 = -(F(a0, b, 0) - ga a0) / ga; the right side has no linear a term
    G = (F.set_zero("x") - a * ga) * (Fraction(-1) / ga)
    a0 = implicit_solve(lambda s: G.substitute({"a": s}), Poly.zero(UNIT, L), L)
    Fs = F.substitute({"a": a * (Fraction(1) / ga) + a0}) - P
    Yc, Ac, Bc = y - P, (a - a0) * ga, b

    m, n = leading(Fs)
    c = Fs.coeff(mono_exps(b=m, x=n))
    if c != 1:
        inv = Fraction(1) / c
        if m == 1:
            Fs, Bc = Fs.substitute({"b": b * inv}), b * c
        else:
            Fs, Yc, Ac = Fs.substitute({"a": a * c}) * inv, Yc * inv, Ac * inv

    if not (Fs.set_zero("a", "b").is_zero() and Fs.set_zero("a", "x").is_zero()
            and Fs.coeff(mono_exps(a=1)) == 1
            and Fs.coeff(mono_exps(b=m, x=n)) == 1):
        raise SolveError("preliminary reduction left a pure series or a "
                         "coefficient other than 1")
    if Yc.substitute({"y": F}) != Fs.substitute({"a": Ac, "b": Bc}):
        raise SolveError("preliminary reduction: transformed equation failed "
                         "verification")
    return Fs, PointMap(x, Yc, Ac, Bc), (m, n)


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


def _normalize_weights(surface: SurfaceJet, model: Poly, complement) -> tuple:
    """Weight-by-weight normal form against the graded operator of the model
    y = a + model, shared by the regular and singular cases.

    At each weight nu above the grading's type k, `cm.decompose` splits the
    weight-nu part of F - a - model into the operator's image and a part on
    the monomials `complement(nu)`.  The field that removes the image part
    is applied as a near-identity map, and the new weight-nu part must equal
    the predicted normal part.  Returns (normalized jet, map, eliminated
    monomials by weight).
    """
    g, L = surface.grading, surface.order
    current = surface
    transform = PointMap.identity(g, L)
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
        transform = step.compose(transform)
        eliminated[nu] = sorted((p_nu - normal).terms)
        if current.f_part(model).component(nu) != normal:
            raise RuntimeError(f"normalization at weight {nu} disagrees with "
                               "the linear prediction")
    return current, transform, eliminated
