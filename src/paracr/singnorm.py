"""Finite-type detection and normal forms for singular (type k > 2) jets.

A singular jet is first reduced to the shape

    y = a + b^m x^n + sum_{j>m} gamma_j b^j x^(k-j) + (weight > k)

under the grading that gives a and y weight k.  Normalization then removes,
weight by weight, the monomial families that the elementary shifts of the
four coordinates can reach; the retained complement is everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cmoperator as cm
from .poly import Poly, VAR_INDEX, mono_exps, singular_grading
from .series import SolveError
from .surfaces import MapError, PointMap, SurfaceJet, _absorb, \
    _normalize_weights, _preliminary


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

    def model(self, grading, order: int) -> Poly:
        return cm.model_poly(grading, order, self.m, self.n, self.gammas)


def finite_type(surface: SurfaceJet) -> TypeData | None:
    """Smallest k with a nonzero mixed partial d^k F / db^m dx^n at 0 (m, n > 0),
    with m minimal at that k.  Returns None if no mixed term shows up through
    the jet's order (undetermined at this truncation)."""
    F = surface.F
    if F.coeff(mono_exps(a=1)) == 0:
        raise MapError("not a graph over a: F_a(0) = 0")
    ib, ix = VAR_INDEX["b"], VAR_INDEX["x"]
    ia, iy = VAR_INDEX["a"], VAR_INDEX["y"]
    best = None
    for exps, c in F.terms.items():
        if exps[ia] or exps[iy]:
            continue
        m, n = exps[ib], exps[ix]
        if m == 0 or n == 0:
            continue
        if best is None or (m + n, m) < best:
            best = (m + n, m)
    if best is None:
        return None
    k, m = best
    return TypeData(k=k, m=m, n=k - m)


def reduced_type(surface: SurfaceJet) -> TypeData | None:
    """Finite type of the jet after the preliminary reduction, which can be
    lower than that of the raw jet: absorbing the pure-b series of
    a + b^2 x^2 + a x + b^2 turns a x into a x - b^2 x, of type 3, not 4.
    The reduction's later scaling keeps every monomial, so the type is read
    right after `_absorb`.  None if no mixed term is left through the jet's
    order."""
    return finite_type(SurfaceJet(_absorb(surface)[1]))


def prelim_reduce_singular(surface: SurfaceJet):
    """Reduce a finite-type jet with k > 2 to the bottom-row shape above.

    Kills the pure-x and pure-b series, scales a to coefficient 1, then
    rescales so the leading mixed coefficient becomes 1.
    Returns (reduced SurfaceJet in the type-k grading, PointMap, TypeData).
    """
    L = surface.order

    def leading(F: Poly) -> tuple:
        t = finite_type(SurfaceJet(F))
        if t is None:
            raise MapError(f"no mixed term through degree {L}; "
                           "type is undetermined at this truncation")
        if t.k == 2:
            raise MapError("jet is of type 2; use the regular reduction")
        return t.m, t.n

    F, total, (m, n) = _preliminary(surface, leading)
    k = m + n
    gammas = tuple(F.coeff(mono_exps(b=j, x=k - j)) for j in range(m + 1, k))
    t = TypeData(k=k, m=m, n=n, gammas=gammas)

    g = singular_grading(k)
    reduced = SurfaceJet(F.with_grading(g, L))
    if not reduced.f_part(t.model(g, L)).up_to_weight(k).is_zero():
        raise SolveError("singular reduction left weight <= k contamination")
    return reduced, total.with_grading(g, L), t


def forbidden_monomials(nu: int, t: TypeData) -> list:
    """The weight-nu monomials excluded from a singular normal form, as
    exponent tuples.  Five families indexed by the bidegree in (b, x), plus
    two extra families in the edge cases m = 1 and n = 1."""
    k, m, n = t.k, t.m, t.n
    g = singular_grading(k)
    out = set()
    for exps in cm.weighted_monomials(nu, ("a", "b", "x"), g):
        j, l = exps[VAR_INDEX["b"]], exps[VAR_INDEX["x"]]
        if j == 0 or l == 0:
            out.add(exps)                       # a^i x^j and a^i b^j
        if j == m and l >= n - 1:
            out.add(exps)                       # a^i b^m x^(n-1+j)
        if l == n and j >= m - 1:
            out.add(exps)                       # a^i b^(m-1+j) x^n
        if (j, l) in ((2 * m, 2 * n), (3 * m, 3 * n)):
            out.add(exps)
        if m == 1 and (j, l) == (1, 2 * n):
            out.add(exps)
        if n == 1 and (j, l) == (2 * m, 1):
            out.add(exps)
    return sorted(out)


def allowed_monomials(nu: int, t: TypeData) -> list:
    g = singular_grading(t.k)
    bad = set(forbidden_monomials(nu, t))
    return [e for e in cm.weighted_monomials(nu, ("a", "b", "x"), g)
            if e not in bad]


@dataclass
class SingularReport:
    normalized: SurfaceJet
    transform: PointMap
    type_data: TypeData
    eliminated_by_weight: dict = field(default_factory=dict)
    ok: bool = False


def check_singular_normal(surface: SurfaceJet, t: TypeData) -> dict:
    """Violations of the singular normal form, per weight.  Empty dict means
    the jet is in normal form through its truncation order."""
    g, L = surface.grading, surface.order
    f = surface.f_part(t.model(g, L))
    if not f.up_to_weight(t.k).is_zero():
        return {t.k: sorted(f.up_to_weight(t.k).terms)}
    violations: dict = {}
    for nu in range(t.k + 1, L + 1):
        p_nu = f.component(nu)
        if p_nu.is_zero():
            continue
        bad = [e for e in forbidden_monomials(nu, t) if p_nu.coeff(e) != 0]
        if bad:
            violations[nu] = bad
    return violations


def is_singular_normal(surface: SurfaceJet, t: TypeData) -> bool:
    return not check_singular_normal(surface, t)


def normalize_singular_jet(surface: SurfaceJet, t: TypeData) -> SingularReport:
    """Weight-by-weight singular normal form of a bottom-row-reduced jet."""
    g, L = surface.grading, surface.order
    if g.type_k != t.k:
        raise ValueError("surface grading does not match the type data")
    model = t.model(g, L)
    if not surface.f_part(model).up_to_weight(t.k).is_zero():
        raise ValueError("jet is not in the reduced bottom-row shape")
    current, transform, eliminated = _normalize_weights(
        surface, model, lambda nu: allowed_monomials(nu, t))
    report = SingularReport(normalized=current, transform=transform,
                            type_data=t, eliminated_by_weight=eliminated)
    report.ok = is_singular_normal(current, t)
    if not report.ok:
        raise SolveError("singular normalization left forbidden monomials: "
                         f"{check_singular_normal(current, t)}")
    return report
