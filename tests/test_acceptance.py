"""Acceptance suite.  Each criterion is one test, so `pytest -v` prints one
pass/fail line per criterion.  All arithmetic is exact; runtime budgets are
asserted with wall-clock checks and every random stream is seeded."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from paracr import cli, cmoperator as cm, linalg, odebridge, regnorm, singnorm
from paracr import autodetect as ad
from paracr.poly import Poly, REGULAR, UNIT, VAR_INDEX, singular_grading
from paracr.surfaces import SurfaceJet, apply_map

from conftest import random_ode_jet, random_regular_jet, random_singular_jet
from test_cmoperator import known_kernels, span_equal

GOLDEN = Path(__file__).parent / "golden"


class budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"runtime budget exceeded: {elapsed:.1f}s > {self.seconds}s")


def flat_jet(order=8):
    return SurfaceJet(Poly.var("a", REGULAR, order)
                      + Poly.monomial(1, REGULAR, order, b=1, x=1))


def test_criterion_01_low_weight_operator_table():
    with budget(1):
        expected = {0: (2, 1), 1: (4, 2), 2: (6, 2), 3: (8, 2), 4: (10, 1)}
        for ell, dims in expected.items():
            rep = cm.analyze(ell)
            assert (rep.domain_dim, rep.kernel_dim) == dims
            _, domain, _ = cm.operator_matrix(ell)
            assert span_equal(rep.kernel, known_kernels(ell, ell + 1), domain)


def test_criterion_02_kernel_trivial_from_weight_five():
    with budget(5):
        for ell in range(5, 13):
            assert cm.analyze(ell).kernel_dim == 0, ell


def test_criterion_03_image_complement_direct_sum():
    with budget(5):
        sizes = {}
        for ell in range(3, 13):
            matrix, domain, codomain = cm.operator_matrix(ell)
            complement = cm.normal_complement_monomials(ell)
            sizes[ell] = len(complement)
            columns = [list(col) for col in zip(*matrix)]
            for exps in complement:
                i = codomain.index(exps)
                columns.append([Fraction(int(j == i))
                                for j in range(len(codomain))])
            image_rank = linalg.rank([list(col) for col in zip(*matrix)])
            assert image_rank + len(complement) == len(codomain), ell
            assert linalg.rank(columns) == len(codomain), ell
        assert [sizes[ell] for ell in (3, 4, 5, 6)] == [0, 0, 0, 2]


def test_criterion_04_normalization_soundness():
    with budget(60):
        rng = random.Random(4001)
        for _ in range(200):
            S = random_regular_jet(rng)
            rep = regnorm.normalize_jet(S)
            assert rep.conditions_ok
            assert apply_map(S, rep.transform).F == rep.normalized.F


def test_criterion_05_geometric_pipeline():
    with budget(120):
        rng = random.Random(4002)
        for _ in range(50):
            S = random_regular_jet(rng)
            rep = regnorm.geometric_normalize(S)
            assert rep.conditions_ok


def test_criterion_06_flat_rigidity_and_minimum_weight():
    rep = regnorm.normalize_jet(flat_jet())
    assert rep.normalized.F == flat_jet().F
    assert rep.transform.is_identity()
    rng = random.Random(4003)
    for _ in range(10):
        rep = regnorm.normalize_jet(random_regular_jet(rng))
        f = rep.normalized.f_regular()
        assert f.is_zero() or f.min_weight() >= 6


def test_criterion_07_ode_round_trips():
    with budget(30):
        rng = random.Random(4004)
        for _ in range(200):
            B = random_ode_jet(rng, order=6)
            S = odebridge.ode_to_surface(B)
            back, _ = odebridge.surface_to_ode(S)
            assert back.B == B.B
            again = odebridge.ode_to_surface(back, S.order)
            assert again.F == S.F


def test_criterion_08_normalized_surfaces_give_normal_odes():
    ip, ix = VAR_INDEX["p"], VAR_INDEX["x"]
    rng = random.Random(4005)
    for _ in range(100):
        rep = regnorm.normalize_jet(random_regular_jet(rng))
        ode, data = odebridge.surface_to_ode(rep.normalized)
        assert odebridge.is_ode_normal(ode)
        for exps in data.phi.terms:
            assert exps[ip] >= 2 and exps[ix] >= 2


def test_criterion_09_linear_odes_are_flat():
    rng = random.Random(4006)
    for _ in range(10):
        r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        S = odebridge.linear_ode_surface(r, s, 8)
        rep = regnorm.normalize_jet(SurfaceJet(S.F.with_grading(REGULAR, 8)))
        assert rep.normalized.F == flat_jet().F
        B = odebridge.OdeJet(-Poly.var("p", UNIT, 6) * r
                             - Poly.var("y", UNIT, 6) * s)
        assert odebridge.tresse_first_invariant(B).is_zero()


def test_criterion_10_singular_normal_forms():
    with budget(120):
        rng = random.Random(4007)
        for k in (3, 4, 5):
            g = singular_grading(k)
            model = SurfaceJet(Poly.var("a", g, k + 6)
                               + Poly.monomial(1, g, k + 6, b=1, x=k - 1))
            rep = singnorm.normalize_singular_jet(model,
                                                  singnorm.TypeData(k, 1, k - 1))
            assert rep.normalized.F == model.F and rep.transform.is_identity()
            for _ in range(50):
                m = rng.randint(1, k - 1)
                S = random_singular_jet(rng, k=k, m=m)
                t = singnorm.TypeData(
                    k=k, m=m, n=k - m,
                    gammas=tuple(S.F.coeff_mono(b=j, x=k - j)
                                 for j in range(m + 1, k)))
                rep = singnorm.normalize_singular_jet(S, t)
                assert singnorm.is_singular_normal(rep.normalized, t)
                assert apply_map(S, rep.transform).F == rep.normalized.F


def test_criterion_11_automorphism_certificates():
    for m in range(1, 8):
        for n in range(1, 9 - m):
            k = m + n
            g = singular_grading(k) if k > 2 else REGULAR
            L = 3 * k
            model = SurfaceJet(Poly.var("a", g, L)
                               + Poly.monomial(1, g, L, b=m, x=n))
            for chi in ad.model_fields(m, n, g, L).values():
                assert ad.apply_field(chi, model).is_zero(), (m, n)
            # a pattern deformation keeps the one-parameter field ...
            rng = random.Random(4100 + 10 * m + n)
            F = model.F
            for r in range(2, L // k + 1):
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                F = F + Poly.monomial(c, g, L, b=r * m, x=r * n)
            chi = ad.rotation_field(m, n, g, L)
            assert ad.is_infinitesimal_automorphism(chi, SurfaceJet(F))
            # ... and one off-pattern monomial flips the verdict
            off = F + Poly.monomial(1, g, L, b=m + n, x=n)
            assert not ad.is_infinitesimal_automorphism(chi, SurfaceJet(off))


def test_criterion_12_golden_cli_tables(capsys):
    for ell in range(5):
        code = cli.main(["tables", "--ell", str(ell), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        golden = (GOLDEN / f"tables_ell{ell}.json").read_text(encoding="utf-8")
        assert out == golden
        json.loads(out)  # the golden file is valid JSON as well


_REGULAR_JET = "2a + 3bx + x^3 + b^2 + ab^2 + b^2x^2 - 1/2 ab x^3 + b^3x^2"
GOLDEN_NORMALIZE = {
    "normalize_regular": ["normalize", "--expr", _REGULAR_JET,
                          "--order", "8"],
    "normalize_regular_geometric": ["normalize", "--geometric",
                                    "--expr", _REGULAR_JET, "--order", "8"],
    "normalize_singular_k3_m1": [
        "normalize-singular", "--order", "8",
        "--expr", "2a + 3bx^2 + x^3 + b^2 + ab^2 + b^2x^2 - ab x^3"],
    "normalize_singular_k3_m2": [
        "normalize-singular", "--order", "8",
        "--expr", "a + 2b^2x + x^3 + b^3 + ab + bx^3 - 1/2 a b^2x"],
    "normalize_singular_k4_m1": [
        "normalize-singular", "--order", "9",
        "--expr", "2a + 3bx^3 + 2b^2x^2 + x^4 + ab^2 + b^2x^3 - b^4x"],
    "normalize_singular_k4_m2": [
        "normalize-singular", "--order", "10",
        "--expr", "a + 3b^2x^2 - b^3x + x^5 + a b^2 + b^2x^3 + 1/2 b^3x^2"],
    "normalize_singular_k5_m1": [
        "normalize-singular", "--order", "10",
        "--expr", "a + 2bx^4 + b^2x^3 + x^6 + ab + b^3x^3 + a x^2"],
    "normalize_singular_k5_m2": [
        "normalize-singular", "--order", "10",
        "--expr", "3a + 2b^2x^3 + b^4x + x^5 + b^6 + a b^2 x - b^3x^3"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_NORMALIZE))
def test_golden_cli_normalize(capsys, name):
    """`normalize --json` (both routes) and `normalize-singular --json` on
    raw jets that need the whole preliminary reduction: pure-x and pure-b
    series, an a-scaling and a leading coefficient other than 1, for
    k = 2..5 and both m = 1 and m > 1.  The output must match the golden
    file byte for byte.

    The printed transform is the normalizing map after the preliminary
    map, composed in the type-k grading when the preliminary map keeps its
    filtration, and otherwise (here k = 3, m = 1, whose A = 2a + b^2 lowers
    weights) in the unit grading through degree L // k."""
    code = cli.main(GOLDEN_NORMALIZE[name] + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
