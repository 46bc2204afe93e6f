"""The linearized normalization operator on graded vector fields.

For a model surface y = a + Q(b, x) (Q = bx in the regular case), a vector
field V = eta d/dy + alpha d/da + beta d/db + xi d/dx acts on the defining
equation and the weight-ell effect is

    T(V) = eta - alpha - Q_b * beta - Q_x * xi,   with y -> a + Q(b, x)

substituted in eta and xi.  Its image at each weight decides which terms of a
jet can be eliminated; the retained monomials span a complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import linalg
from .poly import Poly, Grading, REGULAR, Substitution, VARS, VAR_INDEX


@dataclass(frozen=True)
class VField:
    """eta d/dy + alpha d/da + beta d/db + xi d/dx with the product structure:
    eta, xi depend on (x, y) only; alpha, beta on (a, b) only."""

    eta: Poly
    alpha: Poly
    beta: Poly
    xi: Poly

    def __post_init__(self):
        if not self.eta.variables() <= {"x", "y"}:
            raise ValueError("eta must depend on (x, y) only")
        if not self.xi.variables() <= {"x", "y"}:
            raise ValueError("xi must depend on (x, y) only")
        if not self.alpha.variables() <= {"a", "b"}:
            raise ValueError("alpha must depend on (a, b) only")
        if not self.beta.variables() <= {"a", "b"}:
            raise ValueError("beta must depend on (a, b) only")

    @property
    def grading(self) -> Grading:
        return self.eta.grading

    def is_zero(self) -> bool:
        return (self.eta.is_zero() and self.alpha.is_zero()
                and self.beta.is_zero() and self.xi.is_zero())

    @classmethod
    def zero(cls, grading: Grading, order: int) -> "VField":
        z = Poly.zero(grading, order)
        return cls(z, z, z, z)


def model_poly(grading: Grading, order: int, m: int = 1, n: int = 1,
               gammas=()) -> Poly:
    """Q(b, x) = b^m x^n + sum_j gamma_j b^j x^(k-j) for j = m+1..k-1."""
    q = Poly.monomial(1, grading, order, b=m, x=n)
    k = m + n
    for j, g in zip(range(m + 1, k), gammas):
        q = q + Poly.monomial(g, grading, order, b=j, x=k - j)
    return q


def apply_t(v: VField, model: Poly | None = None) -> Poly:
    """T(V) for the model y = a + Q; result is a polynomial in (a, b, x)."""
    g = v.grading
    order = max(v.eta.order, v.alpha.order, v.beta.order, v.xi.order)
    if model is None:
        model = Poly.monomial(1, g, order, b=1, x=1)
    on_model, q_b, q_x = _model_substitution(g, order, model)
    xi = on_model(v.xi.with_order(order))
    return (on_model(v.eta.with_order(order)) - v.alpha.with_order(order)
            - q_b * v.beta.with_order(order) - q_x * xi)


@lru_cache(maxsize=32)
def _model_substitution(grading: Grading, order: int, model: Poly) -> tuple:
    """(y -> a + Q, Q_b, Q_x) at `order` for `apply_t`, one per model and
    order, kept apart from `operator_matrix`'s substitution so that the
    round trip in `decompose` does not share the assembly's code."""
    surface = Poly.var("a", grading, order) + model.with_order(order)
    return (Substitution({"y": surface}, grading, order),
            model.partial("b").with_order(order),
            model.partial("x").with_order(order))


def weighted_monomials(weight: int, variables: tuple, grading: Grading) -> list:
    """All exponent tuples of the exact given weight using only `variables`,
    in canonical (lex on the exponent tuple) order."""
    idxs = [VAR_INDEX[v] for v in variables]
    out = []

    def rec(pos: int, remaining: int, exps: list):
        if pos == len(idxs):
            if remaining == 0:
                out.append(tuple(exps))
            return
        i = idxs[pos]
        w = grading.weights[i]
        for e in range(remaining // w + 1):
            exps[i] = e
            rec(pos + 1, remaining - e * w, exps)
        exps[i] = 0

    rec(0, weight, [0] * len(VARS))
    return sorted(out)


# Component tags, in the order of the operator matrix's columns.
COMPONENTS = ("eta", "alpha", "beta", "xi")
_COMPONENT_VARS = {"eta": ("x", "y"), "xi": ("x", "y"),
                   "alpha": ("a", "b"), "beta": ("a", "b")}


def domain_basis(ell: int, grading: Grading,
                 component_order: tuple = COMPONENTS) -> list:
    """Elementary fields spanning the homogeneous domain at output weight ell:
    (component, exps) pairs.  eta, alpha carry weight ell; beta, xi carry
    weight ell - (k - 1), k being the a-weight."""
    k = grading.weight_of("a")
    weights = {"eta": ell, "alpha": ell, "beta": ell - (k - 1), "xi": ell - (k - 1)}
    basis = []
    for comp in component_order:
        w = weights[comp]
        if w < 0:
            continue
        for exps in weighted_monomials(w, _COMPONENT_VARS[comp], grading):
            basis.append((comp, exps))
    return basis


def _combine(coefs, domain, grading: Grading, order: int) -> VField:
    """The field sum of coefs[i] times the elementary field domain[i]."""
    parts = {comp: {} for comp in COMPONENTS}
    for coef, (comp, exps) in zip(coefs, domain):
        parts[comp][exps] = coef
    return VField(*(Poly(parts[comp], grading, order) for comp in COMPONENTS))


def basis_field(comp: str, exps: tuple, grading: Grading, order: int) -> VField:
    return _combine((1,), ((comp, exps),), grading, order)


def operator_matrix(ell: int, grading: Grading = REGULAR,
                    model: Poly | None = None,
                    component_order: tuple = COMPONENTS):
    """Matrix of T at output weight ell.  Returns (matrix, domain, codomain)
    with rows indexed by codomain monomials (a, b, x) of weight ell and
    columns by the elementary domain fields.

    The column of a field with one component e is e(y = a + Q) for eta, -e
    for alpha, -Q_b e for beta and -Q_x e(y = a + Q) for xi, through one
    `Substitution` for every column: `apply_t` of that field, which
    `decompose` evaluates apart from this code in its round-trip check."""
    g, order = grading, ell + 1
    domain = domain_basis(ell, g, component_order)
    codomain = weighted_monomials(ell, ("a", "b", "x"), g)
    row_index = {e: i for i, e in enumerate(codomain)}
    if model is None:
        model = Poly.monomial(1, g, order, b=1, x=1)
    on_model = Substitution(
        {"y": Poly.var("a", g, order) + model.with_order(order)}, g, order)
    q_b = model.partial("b").with_order(order)
    q_x = model.partial("x").with_order(order)
    image = {"eta": on_model, "alpha": Poly.__neg__,
             "beta": lambda e: -(q_b * e), "xi": lambda e: -(q_x * on_model(e))}
    zero = Fraction(0)
    matrix = [[zero] * len(domain) for _ in codomain]
    for col, (comp, exps) in enumerate(domain):
        column = image[comp](Poly({exps: 1}, g, order))
        for e, c in column.terms.items():
            matrix[row_index[e]][col] = c
    return matrix, domain, codomain


def kernel_basis(ell: int, grading: Grading = REGULAR,
                 model: Poly | None = None) -> list:
    matrix, domain, _ = operator_matrix(ell, grading, model)
    return [_combine(vec, domain, grading, ell + 1)
            for vec in linalg.nullspace(matrix)]


_EXCLUDED_BIDEGREES = {(2, 2), (2, 3), (3, 2), (3, 3)}


def normal_complement_monomials(ell: int) -> list:
    """Weight-ell monomials a^i b^j x^l retained by the regular normal form:
    j >= 2, l >= 2 and (j, l) outside the four excluded low bidegrees."""
    out = []
    for exps in weighted_monomials(ell, ("a", "b", "x"), REGULAR):
        j, l = exps[VAR_INDEX["b"]], exps[VAR_INDEX["x"]]
        if j >= 2 and l >= 2 and (j, l) not in _EXCLUDED_BIDEGREES:
            out.append(exps)
    return out


@dataclass
class OperatorReport:
    ell: int
    domain_dim: int
    image_dim: int
    kernel_dim: int
    kernel: list = field(default_factory=list)
    complement: list = field(default_factory=list)


def analyze(ell: int, grading: Grading = REGULAR,
            model: Poly | None = None) -> OperatorReport:
    domain = domain_basis(ell, grading)
    kernel = kernel_basis(ell, grading, model)
    complement = normal_complement_monomials(ell) if grading == REGULAR and ell >= 3 else []
    return OperatorReport(ell=ell, domain_dim=len(domain),
                          image_dim=len(domain) - len(kernel),
                          kernel_dim=len(kernel), kernel=kernel,
                          complement=complement)


# Factored solvers kept at once.  A regular jet needs one per weight and
# every regular jet shares them; singular models vary with their gammas, so
# their keys mostly miss.  A miss costs one assembly through one shared
# substitution y -> a + Q and one elimination over sparse rows: about 0.3 and
# 0.4 ms for a singular weight of k = 3..5 (Python 3.11, Fraction, one core
# of a shared 2-vCPU host).
_SOLVER_CACHE_SIZE = 32


@lru_cache(maxsize=_SOLVER_CACHE_SIZE)
def _solver(ell: int, grading: Grading, model: Poly | None,
            complement: tuple) -> tuple:
    """The system [-T | E_complement] at weight ell, factored once.  Returns
    (domain, codomain row index, elimination); every part is read-only."""
    matrix, domain, codomain = operator_matrix(ell, grading, model)
    row_index = {e: i for i, e in enumerate(codomain)}
    zero = Fraction(0)
    full = [[-c if c else zero for c in row] + [zero] * len(complement)
            for row in matrix]
    for c_i, exps in enumerate(complement):
        full[row_index[exps]][len(domain) + c_i] = Fraction(1)
    return (tuple(domain), MappingProxyType(row_index),
            linalg.eliminate(full)[1])


def decompose(p: Poly, complement: list | None = None,
              grading: Grading = REGULAR, model: Poly | None = None):
    """Split a homogeneous weight-ell polynomial as P = -T(v) + normal_part
    with normal_part supported on the complement monomials.  Free parameters
    of the underdetermined solve are zeroed deterministically."""
    comps = p.weighted_components()
    if len(comps) > 1:
        raise ValueError("decompose needs a homogeneous input")
    if not comps:
        return VField.zero(grading, p.order), p
    ell = comps[0][0]
    if complement is None:
        complement = normal_complement_monomials(ell)
    domain, row_index, elimination = _solver(
        ell, grading, model, tuple(complement))
    rhs = [Fraction(0)] * len(row_index)
    for e, c in p.terms.items():
        rhs[row_index[e]] = c
    sol = elimination.solve(rhs)
    if sol is None:
        raise RuntimeError(
            f"decompose: infeasible system at weight {ell}; the direct-sum "
            "property should make this impossible")
    order = p.order
    v = _combine(sol, domain, grading, order)
    normal = Poly({exps: coef for exps, coef in
                   zip(complement, sol[len(domain):]) if coef != 0},
                  grading, order)
    check = (-apply_t(v, model).with_order(order)) + normal
    if check != p:
        raise RuntimeError("decompose: round-trip identity failed")
    return v, normal
