from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paracr import cmoperator as cm
from paracr import linalg
from paracr.poly import Poly, REGULAR, singular_grading


def field(order, **parts):
    """Build a VField from expressions like eta='y', beta=[(1, dict(b=1))]."""
    built = {}
    for comp in ("eta", "alpha", "beta", "xi"):
        p = Poly.zero(REGULAR, order)
        for c, exps in parts.get(comp, []):
            p = p + Poly.monomial(c, REGULAR, order, **exps)
        built[comp] = p
    return cm.VField(**built)


# The known kernel fields at low weight, written out explicitly.
def known_kernels(ell, order):
    one = [(1, {})]
    if ell == 0:
        return [field(order, eta=one, alpha=one)]
    if ell == 1:
        return [field(order, eta=[(1, dict(x=1))], beta=one),
                field(order, alpha=[(1, dict(b=1))], xi=[(-1, {})])]
    if ell == 2:
        return [field(order, eta=[(1, dict(y=1))], alpha=[(1, dict(a=1))],
                      beta=[(1, dict(b=1))]),
                field(order, beta=[(1, dict(b=1))], xi=[(-1, dict(x=1))])]
    if ell == 3:
        return [field(order, alpha=[(1, dict(a=1, b=1))],
                      beta=[(1, dict(b=2))], xi=[(-1, dict(y=1))]),
                field(order, eta=[(1, dict(x=1, y=1))],
                      xi=[(1, dict(x=2))], beta=[(1, dict(a=1))])]
    if ell == 4:
        return [field(order, eta=[(1, dict(y=2))], xi=[(1, dict(x=1, y=1))],
                      alpha=[(1, dict(a=2))], beta=[(1, dict(a=1, b=1))])]
    raise ValueError(ell)


def field_vector(v, domain):
    comps = {"eta": v.eta, "alpha": v.alpha, "beta": v.beta, "xi": v.xi}
    return [Fraction(comps[comp].coeff(exps)) for comp, exps in domain]


def span_equal(fields_a, fields_b, domain):
    rows_a = [field_vector(v, domain) for v in fields_a]
    rows_b = [field_vector(v, domain) for v in fields_b]
    ra = linalg.rank(rows_a)
    rb = linalg.rank(rows_b)
    return ra == rb == linalg.rank(rows_a + rows_b)


@pytest.mark.parametrize("ell,dims", [(0, (2, 1)), (1, (4, 2)), (2, (6, 2)),
                                      (3, (8, 2)), (4, (10, 1))])
def test_low_weight_dimensions_and_kernels(ell, dims):
    rep = cm.analyze(ell)
    assert (rep.domain_dim, rep.kernel_dim) == dims
    _, domain, _ = cm.operator_matrix(ell)
    known = known_kernels(ell, ell + 1)
    for v in known:
        assert cm.apply_t(v).is_zero()
    assert span_equal(rep.kernel, known, domain)


@pytest.mark.parametrize("ell", range(5, 10))
def test_kernel_trivial_above_four(ell):
    assert cm.analyze(ell).kernel_dim == 0


def test_apply_t_on_simple_field():
    # eta = x^2: T(V) = x^2 directly (no y occurs)
    v = cm.basis_field("eta", (0, 0, 2, 0, 0), REGULAR, 3)
    assert cm.apply_t(v) == Poly.monomial(1, REGULAR, 3, x=2)
    # xi = x: T(V) = -Q_x * x = -b x
    v = cm.basis_field("xi", (0, 0, 1, 0, 0), REGULAR, 3)
    assert cm.apply_t(v) == Poly.monomial(-1, REGULAR, 3, b=1, x=1)
    # eta = y picks up the substitution y -> a + bx
    v = cm.basis_field("eta", (0, 0, 0, 1, 0), REGULAR, 3)
    assert cm.apply_t(v) == (Poly.var("a", REGULAR, 3)
                             + Poly.monomial(1, REGULAR, 3, b=1, x=1))


def test_complement_sizes():
    sizes = [len(cm.normal_complement_monomials(ell)) for ell in range(3, 7)]
    assert sizes == [0, 0, 0, 2]
    six = cm.normal_complement_monomials(6)
    names = {tuple(e) for e in six}
    assert names == {(0, 2, 4, 0, 0), (0, 4, 2, 0, 0)}


def test_direct_sum_low_weights():
    for ell in range(3, 8):
        matrix, domain, codomain = cm.operator_matrix(ell)
        complement = cm.normal_complement_monomials(ell)
        image_rank = linalg.rank([list(col) for col in zip(*matrix)])
        assert image_rank + len(complement) == len(codomain)


def test_decompose_round_trip():
    p = Poly.monomial(1, REGULAR, 7, b=1, x=2) + Poly.monomial(2, REGULAR, 7, a=1, b=1)
    v, normal = cm.decompose(p.component(3))
    assert (-cm.apply_t(v)).with_order(7) + normal == p.component(3)
    assert normal.is_zero()  # weight 3 has an empty complement


def test_decompose_needs_homogeneous():
    p = Poly.var("a", REGULAR, 7) + Poly.monomial(1, REGULAR, 7, b=3)
    with pytest.raises(ValueError):
        cm.decompose(p)


def test_singular_model_operator():
    g = singular_grading(4)
    model = cm.model_poly(g, 8, m=2, n=2)
    matrix, domain, codomain = cm.operator_matrix(5, g, model)
    assert len(codomain) == len(cm.weighted_monomials(5, ("a", "b", "x"), g))
    # the image must live inside the weight-5 codomain
    assert len(matrix) == len(codomain)


def test_model_poly_with_gammas():
    g = singular_grading(5)
    q = cm.model_poly(g, 8, m=2, n=3, gammas=(Fraction(1, 2), Fraction(-1),))
    assert q.coeff_mono(b=2, x=3) == 1
    assert q.coeff_mono(b=3, x=2) == Fraction(1, 2)
    assert q.coeff_mono(b=4, x=1) == -1


# ---- the per-weight solver cache ------------------------------------------

def weight_six_jet_part():
    """A weight-6 regular polynomial with terms both in the operator's image
    and on the normal complement (b^2 x^4, b^4 x^2)."""
    p = Poly.zero(REGULAR, 7)
    for c, exps in [(1, dict(b=2, x=4)), (Fraction(-3, 2), dict(b=4, x=2)),
                    (2, dict(a=1, b=1, x=3)), (5, dict(a=3)),
                    (Fraction(1, 3), dict(b=3, x=3))]:
        p = p + Poly.monomial(c, REGULAR, 7, **exps)
    return p


def test_decompose_cache_hit_gives_same_split():
    p = weight_six_jet_part()
    cm._solver.cache_clear()
    first = cm.decompose(p)
    second = cm.decompose(p)
    info = cm._solver.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first == second
    v, normal = first
    assert not normal.is_zero() and not v.is_zero()
    assert (-cm.apply_t(v)).with_order(7) + normal == p
    cm._solver.cache_clear()
    assert cm.decompose(p) == first


def test_decompose_unaffected_by_mutating_operator_matrix(monkeypatch):
    returned = []
    original = cm.operator_matrix

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        returned.append(out)
        return out

    p = weight_six_jet_part()
    cm._solver.cache_clear()
    monkeypatch.setattr(cm, "operator_matrix", recording)
    before = cm.decompose(p)
    assert len(returned) == 1  # the solver is built from operator_matrix
    matrix, domain, codomain = returned[0]
    for row in matrix:
        row[:] = [Fraction(7)] * len(row)
    domain.reverse()
    codomain.clear()
    assert cm.decompose(p) == before
    assert len(returned) == 1  # served from the cache
    cm._solver.cache_clear()


def test_decompose_checks_run_on_a_cache_hit(monkeypatch):
    p = weight_six_jet_part()
    cm.decompose(p)
    hits = cm._solver.cache_info().hits
    monkeypatch.setattr(cm, "apply_t",
                        lambda v, model=None: Poly.zero(REGULAR, 7))
    with pytest.raises(RuntimeError, match="round-trip"):
        cm.decompose(p)
    assert cm._solver.cache_info().hits == hits + 1
    monkeypatch.undo()
    # an empty complement cannot absorb the weight-6 normal part
    for _ in range(2):
        with pytest.raises(RuntimeError, match="infeasible"):
            cm.decompose(p, complement=[])


# ---- the assembly against its definition ----------------------------------

def matrix_by_apply_t(ell, grading, model):
    """operator_matrix by its definition: apply_t of each elementary field,
    with fresh substitutions per column."""
    domain = cm.domain_basis(ell, grading)
    codomain = cm.weighted_monomials(ell, ("a", "b", "x"), grading)
    row_index = {e: i for i, e in enumerate(codomain)}
    matrix = [[Fraction(0)] * len(domain) for _ in codomain]
    for col, (comp, exps) in enumerate(domain):
        field_ = cm.basis_field(comp, exps, grading, ell + 1)
        for e, c in cm.apply_t(field_, model).terms.items():
            matrix[row_index[e]][col] = c
    return matrix, domain, codomain


@st.composite
def singular_operators(draw):
    """(nu, grading, model) for a type-k model with nonzero gammas, at the
    weights a singular jet of order k + 6 reaches; nu >= 2k occurs, where T
    is no longer affine in the gammas."""
    k = draw(st.integers(3, 5))
    m = draw(st.integers(1, k - 1))
    gammas = draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
        min_size=k - 1 - m, max_size=k - 1 - m))
    g = singular_grading(k)
    nu = draw(st.integers(k + 1, k + 6))
    return nu, g, cm.model_poly(g, k + 6, m, k - m, gammas)


@settings(max_examples=40, deadline=None)
@given(singular_operators())
def test_singular_operator_matrix_matches_apply_t(key):
    assert cm.operator_matrix(*key) == matrix_by_apply_t(*key)


@pytest.mark.parametrize("ell", range(9))
def test_regular_operator_matrix_matches_apply_t(ell):
    assert cm.operator_matrix(ell) == matrix_by_apply_t(ell, REGULAR, None)


def test_decompose_catches_a_corrupted_column(monkeypatch):
    # one wrong entry in a column the solution uses: the round trip through
    # apply_t, which does not share the assembly's code, must catch it
    p = weight_six_jet_part()
    cm._solver.cache_clear()
    v, _ = cm.decompose(p)
    _, domain, _ = cm.operator_matrix(6)
    parts = {"eta": v.eta, "alpha": v.alpha, "beta": v.beta, "xi": v.xi}
    col = next(i for i, (comp, exps) in enumerate(domain)
               if parts[comp].coeff(exps))
    exact = cm.operator_matrix

    def corrupted(*args, **kwargs):
        matrix, domain, codomain = exact(*args, **kwargs)
        row = next(r for r in matrix if r[col])
        row[col] += 1
        return matrix, domain, codomain

    monkeypatch.setattr(cm, "operator_matrix", corrupted)
    cm._solver.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="round-trip|infeasible"):
            cm.decompose(p)
    finally:
        cm._solver.cache_clear()
