"""Tangency of vector fields to surface jets, and the certificates that
identify isotropic infinitesimal automorphisms.

A field chi = eta d/dy + alpha d/da + beta d/db + xi d/dx is tangent to
y = F(a, b, x) exactly when the residual chi(y - F) restricted to the surface
vanishes.  For a monomial model a + b^m x^n the known automorphisms are the
grading field, the one-parameter field n b d/db - m x d/dx, and a square
field; a deformed surface keeps the one-parameter field only when every
monomial b^j x^l of its deformation has j n = l m, so that the field is
tangent to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cmoperator import VField
from .poly import Poly, Grading, VAR_INDEX
from .surfaces import finite_type


@dataclass(frozen=True)
class TangencyResidual:
    """chi(y - F) on the surface, a polynomial in (a, b, x)."""

    residual: Poly

    @property
    def order(self) -> int:
        return self.residual.order

    def is_zero(self) -> bool:
        return self.residual.is_zero()


def apply_field(chi: VField, surface) -> TangencyResidual:
    """Residual eta(x, F) - alpha F_a - beta F_b - xi(x, F) F_x, truncated at
    the surface's order."""
    F = surface.F
    g, L = F.grading, F.order
    on_surface = {"y": F}
    eta = chi.eta.with_order(L).substitute(on_surface)
    xi = chi.xi.with_order(L).substitute(on_surface)
    res = (eta
           - chi.alpha.with_order(L) * F.partial("a").with_order(L)
           - chi.beta.with_order(L) * F.partial("b").with_order(L)
           - xi * F.partial("x").with_order(L))
    return TangencyResidual(residual=res)


def is_infinitesimal_automorphism(chi: VField, surface, order: int | None = None) -> bool:
    """Tangency verdict, valid up to the stated weight only."""
    res = apply_field(chi, surface).residual
    if order is not None:
        res = res.up_to_weight(order)
    return res.is_zero()


# ---------------------------------------------------------------------------
# the model fields
# ---------------------------------------------------------------------------


def grading_field(grading: Grading, order: int) -> VField:
    """chi_0 = x d/dx + b d/db + k a d/da + k y d/dy, the field generating
    the weighted dilations; k is the a-weight."""
    k = grading.weight_of("a")
    return VField(eta=Poly.monomial(k, grading, order, y=1),
                  alpha=Poly.monomial(k, grading, order, a=1),
                  beta=Poly.var("b", grading, order),
                  xi=Poly.var("x", grading, order))


def rotation_field(m: int, n: int, grading: Grading, order: int) -> VField:
    """chi = n b d/db - m x d/dx, the one-parameter field of the monomial
    model a + b^m x^n."""
    z = Poly.zero(grading, order)
    return VField(eta=z, alpha=z,
                  beta=Poly.monomial(n, grading, order, b=1),
                  xi=Poly.monomial(-m, grading, order, x=1))


def square_field(m: int, n: int, grading: Grading, order: int) -> VField:
    """chi_k = a^2 d/da + (1/m) a b d/db + (1/n) x y d/dx + y^2 d/dy."""
    return VField(eta=Poly.monomial(1, grading, order, y=2),
                  alpha=Poly.monomial(1, grading, order, a=2),
                  beta=Poly.monomial(Fraction(1, m), grading, order, a=1, b=1),
                  xi=Poly.monomial(Fraction(1, n), grading, order, x=1, y=1))


def model_fields(m: int, n: int, grading: Grading, order: int) -> dict:
    return {"chi0": grading_field(grading, order),
            "chi": rotation_field(m, n, grading, order),
            "chik": square_field(m, n, grading, order)}


# ---------------------------------------------------------------------------
# pattern certificate and the verdict
# ---------------------------------------------------------------------------


def monomial_pattern_check(surface, m: int, n: int) -> dict:
    """Is every monomial b^j x^l of the deformation on the pattern j n = l m,
    the condition for n b d/db - m x d/dx to be tangent to it?  When
    gcd(m, n) > 1 this admits more than the powers of b^m x^n.

    Checks f = F - a - b^m x^n.  The loose reading allows coefficients
    depending on a; the strict one also forbids any a-dependence.  Returns
    both flags.
    """
    g, L = surface.grading, surface.order
    f = surface.F - Poly.var("a", g, L) - Poly.monomial(1, g, L, b=m, x=n)
    ia, ib, ix = VAR_INDEX["a"], VAR_INDEX["b"], VAR_INDEX["x"]
    loose = strict = True
    for exps in f.terms:
        j, l = exps[ib], exps[ix]
        if j * n != l * m or j + l == 0:
            loose = strict = False
            break
        if exps[ia]:
            strict = False
    return {"loose": loose, "strict": strict}


MODEL = "MODEL"
ONE_PARAMETER = "ONE_PARAMETER"
TRIVIAL = "TRIVIAL"


@dataclass
class IsotropyReport:
    verdict: str
    order: int
    m: int | None = None
    n: int | None = None
    fields: dict = field(default_factory=dict)
    pattern: dict = field(default_factory=dict)


def isotropy_report(surface, type_data=None) -> IsotropyReport:
    """Classify the isotropic infinitesimal automorphisms of a normalized
    finite-type jet, up to its truncation order.

    MODEL: the jet is the model itself; reports the three known fields.
    ONE_PARAMETER: the deformation is on-pattern and the one-parameter field
    is tangent; reports it.  TRIVIAL: nothing nontrivial survives.
    """
    g, L = surface.grading, surface.order
    if type_data is None:
        type_data = finite_type(surface)
        if type_data is None:
            raise ValueError("no mixed monomial; the jet is not finite type "
                             "at this truncation")
    m, n = type_data.m, type_data.n
    f = surface.F - Poly.var("a", g, L) - Poly.monomial(1, g, L, b=m, x=n)
    fields = model_fields(m, n, g, L)
    if f.is_zero():
        return IsotropyReport(verdict=MODEL, order=L, m=m, n=n, fields=fields)
    pattern = monomial_pattern_check(surface, m, n)
    chi = fields["chi"]
    if pattern["loose"] and is_infinitesimal_automorphism(chi, surface, L):
        return IsotropyReport(verdict=ONE_PARAMETER, order=L, m=m, n=n,
                              fields={"chi": chi}, pattern=pattern)
    return IsotropyReport(verdict=TRIVIAL, order=L, m=m, n=n, pattern=pattern)
