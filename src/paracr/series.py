"""Truncated-series solvers: triangular implicit systems, reciprocals,
square roots, reversion and series solutions of ODEs.

`implicit_solve` is the one fixed-point solver: one relaxed pass, weight by
weight, then one exact check.  Reciprocals and square roots share one
binomial series.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .poly import Poly, RelaxedSubstitution, Substitution, SubstitutionError, \
    VAR_INDEX, mono_exps


class SolveError(RuntimeError):
    """A solve stalled or failed its check; the message names the weight."""


def implicit_solve(G: Mapping[str, Poly],
                   base: Mapping[str, Poly] | None = None) -> dict:
    """The series s_v = base_v + G_v(s) for each unknown v, truncated at the
    least order of the inputs; s replaces the unknowns in every G_v, not in
    base.  The system must be triangular: at each weight w, in one pass over
    a `RelaxedSubstitution` (van der Hoeven, JSC 2002), the weight-w part of
    each unknown is set in the order given, so G_v(s) may read the unknowns
    before v through w and the others below w.  SolveError names the unknown
    and the weight if G_v reads a part not set yet, if s_v is nonzero below
    the weight of v, or if one `Substitution` of the result fails to
    re-check an equation exactly."""
    inputs = [*G.values(), *(base or {}).values()]
    g, order = inputs[0].grading, min(p.order for p in inputs)
    base = {v: (base or {}).get(v, Poly.zero(g, order)) for v in G}
    table = RelaxedSubstitution(G, g)
    for w in range(order + 1):
        for v, Gv in G.items():
            try:
                part = table.part(Gv, w) + base[v].component(w)
            except SubstitutionError as exc:
                raise SolveError(f"implicit solve: the weight-{w} part of {v} "
                                 f"is not triangular: {exc}") from None
            if w >= g.weight_of(v):
                table.extend(v, part)
            elif not part.is_zero():
                raise SolveError(f"implicit solve: {v} has a part of weight "
                                 f"{w}, below its weight {g.weight_of(v)}")
    s = {v: table.series(v) for v in G}
    check = Substitution(s, g, order)
    for v, Gv in G.items():
        rhs = check(Gv) + base[v]
        if rhs != s[v]:
            raise SolveError(f"implicit solve: {v} fails its equation at weight "
                             f"{(rhs - s[v]).min_weight()}")
    return s


def _binomial(p: Poly, alpha: Fraction) -> Poly:
    """(p/c0)^alpha = sum_k binom(alpha, k) u^k with u = p/c0 - 1, for the
    nonzero constant term c0 of p; u has weight >= 1, so u^k vanishes at
    p's order once k exceeds it."""
    u = p * (1 / p.constant_term()) - 1
    result = power = Poly.const(1, p.grading, p.order)
    coef = Fraction(1)
    for k in range(1, p.order + 1):
        power = power * u
        coef = coef * (alpha - k + 1) / k
        result = result + power * coef
    return result


def reciprocal(p: Poly) -> Poly:
    """1/p for p with nonzero constant term, truncated at p's order."""
    c0 = p.constant_term()
    if c0 == 0:
        raise SolveError("reciprocal of a series with zero constant term")
    return _binomial(p, Fraction(-1)) * (1 / c0)


def divide(p: Poly, q: Poly) -> Poly:
    return p * reciprocal(q)


def sqrt_unit(p: Poly) -> Poly:
    """Square root of a series whose constant term is the square of a rational;
    the branch with positive constant term."""
    c0 = p.constant_term()
    if c0 <= 0:
        raise SolveError("series square root needs a positive constant term")
    r = _fraction_sqrt(c0)
    return _binomial(p, Fraction(1, 2)) * r


def _fraction_sqrt(c: Fraction) -> Fraction:
    import math

    num = math.isqrt(c.numerator)
    den = math.isqrt(c.denominator)
    if num * num != c.numerator or den * den != c.denominator:
        raise SolveError(f"constant term {c} is not a rational square")
    return Fraction(num, den)


def reverse_univariate(p: Poly, var: str) -> Poly:
    """Compositional inverse of p = c*var + higher (c != 0) in one variable:
    q = var/c - rest(q)/c with rest = p - c*var."""
    i = VAR_INDEX[var]
    lin = p.coeff(mono_exps(**{var: 1}))
    if lin == 0:
        raise SolveError("series reversion needs an invertible linear part")
    if any(exps[i] == 0 and c != 0 for exps, c in p.terms.items()):
        raise SolveError("series reversion needs zero constant term")
    t = Poly.var(var, p.grading, p.order)
    inv = 1 / lin
    return implicit_solve({var: (t * lin - p) * inv}, {var: t * inv})[var]


def ode_solve(deriv_order: int,
              rhs: Callable[[Sequence[Poly], Poly], Poly],
              inits: Sequence,
              var: str,
              grading,
              order: int) -> Poly:
    """Series solution u(var) of u^(n) = rhs([u, u', ..., u^(n-1)], var).

    `inits` are the coefficients of var^0..var^(n-1) (rationals, or
    polynomials in the other variables).  Coefficients are matched
    order-by-order; the solution is verified against the equation before
    returning.
    """
    t = Poly.var(var, grading, order)
    u = Poly.zero(grading, order)
    for j, c in enumerate(inits):
        if isinstance(c, Poly):
            u = u + c * t ** j
        else:
            u = u + Poly.const(c, grading, order) * t ** j

    w = grading.weight_of(var)
    for n in range(deriv_order, order // w + 1):
        derivs = [u]
        for _ in range(deriv_order - 1):
            derivs.append(derivs[-1].partial(var).with_order(order))
        r = rhs(derivs, t)
        target = r.coeff_series(**{var: n - deriv_order})
        # u^(n-th coefficient) from matching u^(deriv_order) at var^(n-deriv_order)
        fall = 1
        for j in range(deriv_order):
            fall *= (n - j)
        c_n = target * Fraction(1, fall)
        u = u + c_n * t ** n

    derivs = [u]
    for _ in range(deriv_order):
        derivs.append(derivs[-1].partial(var).with_order(order))
    residual = derivs[deriv_order] - rhs(derivs[:deriv_order], t)
    check_order = order - deriv_order * w
    if not residual.up_to_weight(check_order).is_zero():
        bad = residual.up_to_weight(check_order).min_weight()
        raise SolveError(f"series ODE solve failed at weight {bad}")
    return u
