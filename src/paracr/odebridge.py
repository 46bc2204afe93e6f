"""Bridge between second-order ODEs y'' = B(x, y, y') and their solution
manifolds y = F(a, b, x), where (a, b) = (y(0), y'(0)).

ODE jets live in the variables (x, y, p) with p standing for y', truncated by
total degree.  Converting a surface to an ODE costs two x-orders, because B
is built from the second x-derivative of F.

Both directions solve a fixed point that is triangular in the degree, in
one pass over a `RelaxedSubstitution`, which computes each degree of every
product of powers of the unknown series once, and re-check it exactly by a
fresh substitution.  The initial conditions a, b from y = F(a, b, x),
p = F_x(a, b, x) form a polynomial system, solved by `implicit_solve`.  F
from F = a + bx + (double x-integral of B(x, F, F_x)) is not one, since its
right side integrates, so `ode_to_surface` runs its own pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Poly, RelaxedSubstitution, UNIT, VAR_INDEX
from .series import SolveError, implicit_solve, ode_solve


@dataclass(frozen=True)
class OdeJet:
    """Right-hand side B(x, y, p), truncated by total degree."""

    B: Poly

    def __post_init__(self):
        if not self.B.variables() <= {"x", "y", "p"}:
            raise ValueError("an ODE right-hand side depends on (x, y, p) only")
        if self.B.grading != UNIT:
            raise ValueError("ODE jets use the total-degree grading")

    @property
    def order(self) -> int:
        return self.B.order

    def __str__(self):
        return str(self.B)


@dataclass(frozen=True)
class EliminationData:
    """The series a(x, y, p), b(x, y, p) eliminating the initial conditions,
    and phi = (integral of b in x) - x p."""

    a_series: Poly
    b_series: Poly
    phi: Poly


def ode_to_surface(ode: OdeJet, order: int | None = None):
    """Solution manifold F(a, b, x) = a + bx + sum c_n(a, b) x^n of the ODE,
    truncated by total degree.  The default order keeps everything B carries:
    B.order + 2.

    F is the fixed point of F = a + bx + (double x-integral of B(x, F, F_x)),
    solved in one triangular pass: the degree-w part of F is that of a + bx
    plus the double integral of the degree-(w - 2) part of B(x, F, F_x),
    which reads F only through degree w - 1, from one
    `RelaxedSubstitution`.  A fresh substitution then checks F_xx =
    B(x, F, F_x) through degree order - 2 and the fixed point at the full
    order, or SolveError."""
    from .surfaces import SurfaceJet

    if order is None:
        order = ode.order + 2
    B = ode.B.with_order(order)
    base = Poly.var("a", UNIT, order) + Poly.monomial(1, UNIT, order, b=1, x=1)
    # with G = B(x, F, F_x), the integral of the degree-(w - 2) part of G is
    # the degree-(w - 1) part of F_x - b, and its integral that of F - a - bx
    table = RelaxedSubstitution(("y", "p"), UNIT)
    if order >= 1:
        table.extend("y", Poly.var("a", UNIT, 1))
    for w in range(2, order + 1):
        Fx_w = table.part(B, w - 2).integrate("x")
        if w == 2:
            Fx_w = Fx_w + Poly.var("b", UNIT, 1)
        table.extend("p", Fx_w)
        table.extend("y", Fx_w.integrate("x"))
    F = table.series("y")

    Fx = F.partial("x")
    G = B.substitute({"y": F, "p": Fx})
    residual = Fx.partial("x") - G.with_order(order - 2)
    if not residual.is_zero():
        raise SolveError("solution jet fails its own equation at weight "
                         f"{residual.min_weight()}")
    residual = base + G.integrate("x").integrate("x") - F
    if not residual.is_zero():
        raise SolveError("solution jet fails F = a + bx + (double integral "
                         f"of B) at weight {residual.min_weight()}")
    return SurfaceJet(F)


def eliminate_initial_conditions(surface) -> EliminationData:
    """Solve y = F(a, b, x), p = F_x(a, b, x) for a(x, y, p), b(x, y, p),
    where F = a + c bx + f with c != 0 and f of degree 2 and up.

    `implicit_solve` sets, at each degree w, the part of a from
    a = y - (F - a)(a, b, x), then that of b from
    b = (p - (F_x - c b)(a, b, x)) / c: the degree-w part of a reads a and b
    only through degree w - 1, and that of b reads a through degree w (f_x
    has no term linear in b).  Its fresh substitution re-checks both
    identities exactly, or SolveError.  phi is (integral of b in x) - x p as
    for c = 1, so for c != 1 it starts with (1/c - 1) x p."""
    L = surface.order
    F = surface.F.with_grading(UNIT, L)
    x, y, p, a = (Poly.var(v, UNIT, L) for v in "xypa")
    c = F.coeff_mono(b=1, x=1)
    bx = Poly.monomial(c, UNIT, L, b=1, x=1)
    if c == 0 or not (F - a - bx).up_to_weight(1).is_zero():
        raise ValueError("elimination expects the shape a + bx + higher order")
    inv_c = 1 / Fraction(c)
    Fx = F.partial("x").with_order(L)
    G = {"a": -(F - a), "b": (Fx - Poly.monomial(c, UNIT, L, b=1)) * -inv_c}
    try:
        s = implicit_solve(G, {"a": y, "b": p * inv_c})
    except SolveError as exc:
        raise SolveError("elimination of the initial conditions fails "
                         f"F(a, b, x) = y or F_x(a, b, x) = p: {exc}") from None
    phi = s["b"].integrate("x").with_order(L) - x * p
    return EliminationData(a_series=s["a"], b_series=s["b"], phi=phi)


def surface_to_ode(surface) -> tuple:
    """ODE jet of a surface, with the elimination data.  The result is
    truncated two orders below the surface (F_xx loses two x-orders)."""
    L = surface.order
    F = surface.F.with_grading(UNIT, L)
    data = eliminate_initial_conditions(surface)
    Fxx = F.partial("x", 2)
    B = Fxx.substitute({"a": data.a_series.with_order(L - 2),
                        "b": data.b_series.with_order(L - 2)})
    return OdeJet(B), data


# Coefficient families B_ij that a normalized surface forces to zero:
# all (i, 0) and (i, 1), plus the four low corners.
_FIXED_FORBIDDEN = ((0, 2), (0, 3), (1, 2), (1, 3))


def check_ode_normal(ode: OdeJet) -> dict:
    """Offending coefficient families, as {(i, j): B_ij}.  Empty means the
    jet has the shape (y')^4-series plus the x^i (y')^j, i,j >= 2 block."""
    ix, ip = VAR_INDEX["x"], VAR_INDEX["p"]
    offenders: dict = {}
    for exps, c in ode.B.terms.items():
        i, j = exps[ix], exps[ip]
        if j <= 1 or (i, j) in _FIXED_FORBIDDEN:
            offenders.setdefault((i, j), {})[exps] = c
    return {ij: Poly(terms, UNIT, ode.order)
            for ij, terms in sorted(offenders.items())}


def is_ode_normal(ode: OdeJet) -> bool:
    return not check_ode_normal(ode)


def tresse_first_invariant(ode: OdeJet) -> Poly:
    """The relative invariant d^4 B / dp^4; its vanishing kills every
    B_(i, j+4) family."""
    return ode.B.partial("p", 4)


def linear_ode_surface(r, s, order: int):
    """Solution manifold of y'' + r y' + s y = 0 (constant coefficients):
    F = a f1(x) + b f2(x) with f1(0) = f2'(0) = 1, f1'(0) = f2(0) = 0."""
    from .surfaces import SurfaceJet

    def rhs(derivs, t):
        u, up = derivs
        return u * (-Fraction(s)) + up * (-Fraction(r))

    f1 = ode_solve(2, rhs, [Fraction(1), Fraction(0)], "x", UNIT, order)
    f2 = ode_solve(2, rhs, [Fraction(0), Fraction(1)], "x", UNIT, order)
    F = Poly.var("a", UNIT, order) * f1 + Poly.var("b", UNIT, order) * f2
    return SurfaceJet(F)
