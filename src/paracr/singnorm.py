"""Normal forms for singular (type k > 2) jets.

`surfaces._reduce`, guarded here by `prelim_reduce_singular`, reduces a jet
of finite type k to the shape

    y = a + b^m x^n + sum_{j>m} gamma_j b^j x^(k-j) + (weight > k)

under the grading that gives a and y weight k.  Normalization then removes,
weight by weight, the monomial families that the elementary shifts of the
four coordinates can reach; the retained complement is everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cmoperator as cm
from .poly import VAR_INDEX, singular_grading
from .series import SolveError
from .surfaces import MapError, PointMap, SurfaceJet, TypeData, _absorb, \
    _normalize_weights, _reduce, finite_type


def reduced_type(surface: SurfaceJet) -> TypeData | None:
    """The type that `surfaces._reduce` reads: the jet's after the absorption
    of its pure series, which can change it.  In a + b^2x^2 + ax + b^2 the
    ax becomes ax - b^2x, of type 3, not 4; in a + bx + b + ax + b^2x the bx
    cancels, leaving type 3, not 2.  None if no mixed term is left."""
    return finite_type(SurfaceJet(_absorb(surface)[1]))


def prelim_reduce_singular(surface: SurfaceJet) -> tuple:
    """`surfaces._reduce` of a jet of type k > 2: (the shape above, map,
    TypeData).  MapError if the jet is of type 2."""
    reduced, pmap, t = _reduce(surface)
    if t.regular:
        raise MapError("jet is of type 2; use the regular reduction")
    return reduced, pmap, t


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
