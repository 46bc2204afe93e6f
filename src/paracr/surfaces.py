"""Surface jets y = F(a, b, x), product-preserving point maps, finite type,
and the exact transformation of a jet under a map.

Maps respect the product structure: (X, Y) depend only on (x, y) and (A, B)
only on (a, b).  A jet is normalized in two stages, in the manner of
Chern-Moser.  The preliminary reduction `_reduce`, shared by the regular
and singular cases, absorbs the pure series, reads the finite type k and
scales the leading coefficient in closed form.  Every later step is a map
whose weight-preserving part is the identity in the jet's type-k grading.
Both cases share the weight-by-weight normalization `_normalize_weights`:
one relaxed pass reads each weight of the transformed jet from the defining
identity Y(x, F) = F*(A, B, X(x, F)) without transforming the jet, grows the
map step by step, and checks the composed identity once.  `apply_map`
transforms a jet by one such map: one triangular pass over a shared
`Substitution` solves the identity, and an independent re-substitution
checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import factorial

from . import cmoperator as cm
from .poly import Poly, Grading, RelaxedSubstitution, Substitution, UNIT, \
    VAR_INDEX, mono_exps, singular_grading
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
    invertible linear part M, as series in the same two variable names:
    s = M^-1 (u, v) - M^-1 (h1, h2)(s), with h = (P, Q) - M (u, v), by
    `implicit_solve` in the grading of the inputs."""
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
    s = implicit_solve({v1: -(h1 * i11 + h2 * i12), v2: -(h1 * i21 + h2 * i22)},
                       {v1: t1 * i11 + t2 * i12, v2: t1 * i21 + t2 * i22})
    return s[v1], s[v2]


def apply_map(surface: SurfaceJet, pmap: PointMap) -> SurfaceJet:
    """Transform y = F(a, b, x) by a near-identity map; returns the new jet
    F* with Y = F*(A, B, X) on the image.

    The map must be in the jet's grading, each component minus its variable
    must have weighted order above that variable's weight, and F must have
    weighted order at least the weight of y; otherwise MapError.  Then
    image(e) = e(A, B, X(x, F)) is e plus heavier terms, and one triangular
    pass fixes F* weight by weight: its weight-w part is that of Y(x, F)
    less image(e) - e for each part e fixed at a lighter weight, read from
    the product cache of one `Substitution`.  A fresh substitution then
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
    # F* is a series in the substituted variables (a, b, x); the weight-w
    # part of image(e) is e itself, so subtracting the image of each part
    # fixed leaves the heavier parts still to fix
    rest, F_star = y_val, Poly.zero(g, L)
    for w in range(L + 1):
        fixed = rest.component(w)
        if not fixed.is_zero():
            F_star = F_star + fixed
            if w < L:
                rest = rest - image(fixed)
    residual = y_val - F_star.substitute(subs)
    if not residual.is_zero():
        raise SolveError("apply_map: defining identity fails at weight "
                         f"{residual.min_weight()}")
    return SurfaceJet(F_star)


def _absorb(surface: SurfaceJet) -> tuple:
    """The absorption of the pure series that starts the preliminary
    reduction, in closed form in the unit grading.

    With ga = F_a(0), P(x) = F(0, 0, x) and a0(b) the root of
    F(a0(b), b, 0) = 0, the map (x, y - P, ga (a - a0(b)), b) takes F to
    F* = F(a/ga + a0(b), b, x) - P(x), which has no pure-x or pure-b series
    and coefficient 1 on a.  a0 = G(a0, b) is solved by `implicit_solve`,
    which re-checks it exactly; its SolveError gets the prefix
    "absorption".  Returns (F, F*, Y, A), all in the unit grading; MapError
    if F_a(0) = 0 or F(0) != 0.
    """
    L = surface.order
    F = surface.F.with_grading(UNIT, L)
    ga = F.coeff(mono_exps(a=1))
    if ga == 0:
        raise MapError("not a graph over a: F_a(0) = 0")
    if F.constant_term() != 0:
        raise MapError("the surface does not pass through the origin: F(0) != 0")
    y, a = Poly.var("y", UNIT, L), Poly.var("a", UNIT, L)
    P = F.set_zero("a", "b")
    # a0 = G(a0, b) = -(F(a0, b, 0) - ga a0) / ga; G has no linear a term,
    # so the system is triangular
    G = (F.set_zero("x") - a * ga) * (Fraction(-1) / ga)
    try:
        a0 = implicit_solve({"a": G})["a"]
    except SolveError as exc:
        raise SolveError(f"absorption: a0(b) = G(a0, b): {exc}") from None
    Fs = F.substitute({"a": a * (Fraction(1) / ga) + a0}) - P
    return F, Fs, y - P, (a - a0) * ga


@dataclass(frozen=True)
class TypeData:
    """Finite type k with leading mixed monomial b^m x^n (m + n = k) and the
    remaining bottom-row coefficients gamma_j, j = m+1 .. k-1."""

    k: int
    m: int
    n: int
    gammas: tuple = ()

    @property
    def regular(self) -> bool:
        return self.k == 2

    def model(self, grading: Grading, order: int) -> Poly:
        return cm.model_poly(grading, order, self.m, self.n, self.gammas)


def finite_type(surface: SurfaceJet) -> TypeData | None:
    """Smallest k with a nonzero mixed partial d^k F / db^m dx^n at 0 (m, n > 0),
    with m minimal at that k.  Returns None if no mixed term shows up through
    the jet's order (undetermined at this truncation)."""
    F = surface.F
    if F.coeff(mono_exps(a=1)) == 0:
        raise MapError("not a graph over a: F_a(0) = 0")
    ia, ib, ix, iy = (VAR_INDEX[v] for v in "abxy")
    mixed = [(e[ib] + e[ix], e[ib]) for e in F.terms
             if e[ib] and e[ix] and not e[ia] and not e[iy]]
    if not mixed:
        return None
    k, m = min(mixed)
    return TypeData(k=k, m=m, n=k - m)


def _reduce(surface: SurfaceJet) -> tuple:
    """The preliminary reduction of a regular or singular jet, in closed
    form in the unit grading, where its maps keep the filtration.

    The type (k, m, n) is read once, after `_absorb`, and the coefficient c
    of b^m x^n is scaled to 1: by b* = c b when m = 1, else by y* = y/c,
    a* = a/c, since the b-scaling alone cannot reach 1 over the rationals.
    Exact checks: no pure series, nothing of type-k weight <= k off the
    model, and Y(x, F) = F*(A, B, X(x, F)).  Returns (F*, map, TypeData),
    F* and the map in the type-k grading; MapError if no mixed term is left.
    """
    L = surface.order
    F, Fs, Yc, Ac = _absorb(surface)
    t = finite_type(SurfaceJet(Fs))
    if t is None:
        raise MapError(f"no mixed term through degree {L}; "
                       "type is undetermined at this truncation")
    k, m, n = t.k, t.m, t.n
    x, a, b = (Poly.var(v, UNIT, L) for v in "xab")
    Bc = b
    c = Fs.coeff(mono_exps(b=m, x=n))
    if c != 1:
        inv = Fraction(1) / c
        if m == 1:
            Fs, Bc = Fs.substitute({"b": b * inv}), b * c
        else:
            Fs, Yc, Ac = Fs.substitute({"a": a * c}) * inv, Yc * inv, Ac * inv
    t = TypeData(k, m, n, tuple(Fs.coeff(mono_exps(b=j, x=k - j))
                                for j in range(m + 1, k)))
    if not (Fs.set_zero("a", "b").is_zero() and Fs.set_zero("a", "x").is_zero()):
        raise SolveError("preliminary reduction left a pure series")
    g = singular_grading(k)
    reduced = SurfaceJet(Fs.with_grading(g, L))
    if not reduced.f_part(t.model(g, L)).up_to_weight(k).is_zero():
        raise SolveError(f"preliminary reduction left terms of weight <= {k} "
                         "off the model")
    if Yc.substitute({"y": F}) != Fs.substitute({"a": Ac, "b": Bc}):
        raise SolveError("preliminary reduction: transformed equation failed "
                         "verification")
    return reduced, PointMap(x, Yc, Ac, Bc).with_grading(g, L), t


def preliminary_reduce(surface: SurfaceJet) -> tuple:
    """`_reduce` of a type-2 jet: (a + bx + (weight >= 3), map) in the
    regular grading.  MapError if the jet is not of type 2."""
    reduced, pmap, t = _reduce(surface)
    if not t.regular:
        raise MapError("jet is not of type 2; use the singular reduction")
    return reduced, pmap


def _compose_steps(steps: list, grading: Grading, order: int) -> PointMap:
    """s_N o ... o s_1 as ((s_N o s_(N-1)) o ...) o s_1: each composition
    substitutes a sparse step, not the accumulated map."""
    if not steps:
        return PointMap.identity(grading, order)
    return reduce(PointMap.compose, reversed(steps))


def _normalize_weights(surface: SurfaceJet, model: Poly, complement) -> tuple:
    """Weight-by-weight normal form against the graded operator of the model
    y = a + Q, Q = model, shared by the regular and singular cases, in one
    relaxed pass (van der Hoeven, JSC 2002) that never transforms the jet.

    The map grows as Phi = s_nu o Phi, one step s_nu = id + v per weight nu
    above the grading's type k.  A step changes F* only from weight nu on,
    so the weight-nu part p of F* - a - Q under the map so far is read from
    Y(x, F) = F*(A, B, X(x, F)):

        p = [Y(x, F)]_nu - [A]_nu - [Q(B, X(x, F))]_nu - [f*(A, B, X(x, F))]_nu

    with f* the normal parts fixed below nu.  y -> F is one table.  f* reads
    a second, extended only with parts that no later step changes: A
    through nu - 1, and B and X(x, F) through nu - k.  Q reads their weight
    nu - k + 1 parts linearly, through Q_b and Q_x, which is T; its Taylor
    terms of degree >= 2 in (B - b, X - x), one group per plain monomial
    b^r x^s, read a third table.
    `cm.decompose` splits p into the operator's image, which v removes, and
    a normal part on the monomials `complement(nu)`.  One exact check of the
    composed identity by fresh substitutions closes the pass; SolveError
    names the first weight where it fails.  Returns (normalized jet, map,
    eliminated monomials by weight).
    """
    g, L, k = surface.grading, surface.order, surface.grading.type_k
    F = surface.F
    x, y, a, b = (Poly.var(v, g, L) for v in "xyab")
    zero = Poly.zero(g, L)
    phi = PointMap.identity(g, L)
    on_F = RelaxedSubstitution(("y",), g)
    for w in range(k, L + 1):
        on_F.extend("y", F.component(w))
    image = RelaxedSubstitution(("a", "b", "x"), g)
    shift = RelaxedSubstitution(("b", "x"), g)
    for var in "bx":
        shift.extend(var, zero)  # B - b and X - x vanish at weight 1
    q_b, q_x = (model.partial(var).with_order(L) for var in "bx")
    # Q(b + u, x + v) - Q - Q_b u - Q_x v is a sum of b^r x^s P(u, v) over
    # plain monomials b^r x^s: (their exponents, r + s, P of degree >= 2)
    taylor: dict = {}
    for i in range(k + 1):
        for j in range(k + 1 - i):
            if i + j > 1:
                for e, c in model.partial("b", i).partial("x", j).terms.items():
                    taylor.setdefault(e, {})[mono_exps(b=i, x=j)] = \
                        c / (factorial(i) * factorial(j))
    taylor = [(Poly({e: 1}, g, L), g.weight(e), Poly(P, g, L))
              for e, P in taylor.items()]

    def read(table, poly, w):
        # at the jet's order, so that its products reach weight nu
        return table.part(poly, w).with_order(L)

    f_star = zero
    eliminated: dict = {}
    for nu in range(k + 1, L + 1):
        low = nu - k
        image.extend("a", phi.Ac.component(nu - 1))
        for var, part in (("b", phi.Bc.component(low)),
                          ("x", read(on_F, phi.Xc, low))):
            image.extend(var, part)
            if low > 1:
                shift.extend(var, part)
        p_nu = (read(on_F, phi.Yc, nu) - phi.Ac.component(nu)
                - read(image, f_star, nu) - q_b * phi.Bc.component(low + 1)
                - q_x * read(on_F, phi.Xc, low + 1))
        for mono, we, P in taylor:
            p_nu = p_nu - read(shift, P, nu - we) * mono
        if p_nu.is_zero():
            continue
        v, normal = cm.decompose(p_nu, complement(nu), g, model)
        if not v.is_zero():
            step = PointMap(x + v.xi.with_order(L), y + v.eta.with_order(L),
                            a + v.alpha.with_order(L), b + v.beta.with_order(L))
            phi = step.compose(phi)
            eliminated[nu] = sorted((p_nu - normal).terms)
        f_star = f_star + normal
    F_star = F.up_to_weight(k) + f_star
    on = Substitution({"y": F}, g, L)
    residual = on(phi.Yc) - Substitution(
        {"a": phi.Ac, "b": phi.Bc, "x": on(phi.Xc)}, g, L)(F_star)
    if not residual.is_zero():
        raise SolveError("normalization: the composed identity fails at weight "
                         f"{residual.min_weight()}")
    return SurfaceJet(F_star), phi, eliminated
