"""Bridge between second-order ODEs y'' = B(x, y, y') and their solution
manifolds y = F(a, b, x), where (a, b) = (y(0), y'(0)).

ODE jets live in the variables (x, y, p) with p standing for y', truncated by
total degree.  Converting a surface to an ODE costs two x-orders, because B
is built from the second x-derivative of F.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Poly, UNIT, VAR_INDEX
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

    def coefficient(self, i: int, j: int) -> Poly:
        """B_ij(y), the coefficient of x^i p^j."""
        return self.B.coeff_series(x=i, p=j)

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
    solved with the truncation growing one degree per sweep; the result is
    checked against the equation before returning."""
    from .surfaces import SurfaceJet

    if order is None:
        order = ode.order + 2
    B = ode.B.with_order(order)
    base = Poly.var("a", UNIT, order) + Poly.monomial(1, UNIT, order, b=1, x=1)

    def rhs(F: Poly) -> Poly:
        G = B.substitute({"y": F, "p": F.partial("x")})
        return base + G.integrate("x").integrate("x")

    F = implicit_solve(rhs, base, order)
    Fxx = F.partial("x", 2).with_order(order - 2)
    residual = Fxx - B.with_order(order - 2).substitute(
        {"y": F.with_order(order - 2),
         "p": F.partial("x").with_order(order - 2)})
    if not residual.is_zero():
        raise SolveError("solution jet fails its own equation at weight "
                         f"{residual.min_weight()}")
    return SurfaceJet(F)


def eliminate_initial_conditions(surface) -> EliminationData:
    """Solve y = a + c bx + f, p = c b + f_x for a(x, y, p), b(x, y, p),
    where c != 0 is the coefficient of bx in F and f holds degree 2 and up.

    Each sweep sets b <- (p - f_x(a, b)) / c, then a <- y - c b x - f(a, b).
    The truncation grows one degree per sweep; then sweeps at full order run
    until the state is fixed (b can settle a degree after a, when f_x has a
    term linear in a).  phi is (integral of b in x) - x p as for c = 1, so
    for c != 1 it starts with (1/c - 1) x p."""
    L = surface.order
    F = surface.F.with_grading(UNIT, L)
    x = Poly.var("x", UNIT, L)
    y = Poly.var("y", UNIT, L)
    p = Poly.var("p", UNIT, L)
    c = F.coeff_mono(b=1, x=1)
    f = F - Poly.var("a", UNIT, L) - Poly.monomial(c, UNIT, L, b=1, x=1)
    if c == 0 or not f.up_to_weight(1).is_zero():
        raise ValueError("elimination expects the shape a + bx + higher order")
    # b <- (p - f_x) / c with the division done once, outside the sweeps
    inv_c = 1 / Fraction(c)
    p_c = p * inv_c
    fx_c = f.partial("x").with_order(L) * inv_c
    cx = x * c

    def sweep(aS: Poly, bS: Poly) -> tuple:
        b_new = p_c - fx_c.substitute({"a": aS, "b": bS}, strict=False)
        a_new = y - b_new * cx - f.substitute({"a": aS, "b": b_new}, strict=False)
        return a_new, b_new

    aS, bS = y, p
    for w in range(1, L + 1):
        aS, bS = sweep(aS.with_order(w), bS.with_order(w))
    for _ in range(L + 2):
        a_new, b_new = sweep(aS, bS)
        if a_new == aS and b_new == bS:
            break
        aS, bS = a_new, b_new
    else:
        raise SolveError("elimination of the initial conditions stalled")

    phi = bS.integrate("x").with_order(L) - x * p
    return EliminationData(a_series=aS, b_series=bS, phi=phi)


def surface_to_ode(surface) -> tuple:
    """ODE jet of a surface, with the elimination data.  The result is
    truncated two orders below the surface (F_xx loses two x-orders)."""
    L = surface.order
    F = surface.F.with_grading(UNIT, L)
    data = eliminate_initial_conditions(surface)
    Fxx = F.partial("x", 2)
    B = Fxx.substitute({"a": data.a_series.with_order(L - 2),
                        "b": data.b_series.with_order(L - 2)}, strict=False)
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
