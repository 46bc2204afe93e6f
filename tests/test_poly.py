import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from paracr.cmoperator import weighted_monomials
from paracr.poly import (Poly, Grading, REGULAR, UNIT, VARS, VAR_INDEX,
                         singular_grading, GradingError, RelaxedSubstitution,
                         Substitution, SubstitutionError, mono_exps)


def P(terms, g=REGULAR, order=8):
    return Poly(terms, g, order)


def test_gradings():
    assert REGULAR.weight_of("a") == 2
    assert REGULAR.weight_of("b") == 1
    assert REGULAR.weight(mono_exps(a=1, b=2, x=1)) == 5
    g5 = singular_grading(5)
    assert g5.weight(mono_exps(a=1, x=2)) == 7
    assert g5.type_k == 5
    with pytest.raises(ValueError):
        singular_grading(1)
    # one shared instance per k, so that its weight cache is shared too
    assert singular_grading(2) is REGULAR
    assert singular_grading(5) is g5


def test_truncation_on_construction():
    p = P({mono_exps(b=9): 1, mono_exps(b=2): 1})
    assert p.coeff_mono(b=9) == 0
    assert p.coeff_mono(b=2) == 1


def test_add_cancellation():
    a = Poly.var("a", REGULAR, 8)
    bx = Poly.monomial(1, REGULAR, 8, b=1, x=1)
    assert (a + bx) + (-bx) == a
    assert a + 0 == a
    half = Poly.monomial(Fraction(1, 2), REGULAR, 8, b=2, x=2)
    assert half + half == Poly.monomial(1, REGULAR, 8, b=2, x=2)


def test_add_copies_the_larger_operand():
    # small + big and big + small agree, terms that cancel are dropped, and
    # the sum keeps the smaller order whichever operand is larger
    small = P({mono_exps(a=1): 1, mono_exps(b=3): Fraction(1, 2)}, order=4)
    big = P({mono_exps(a=1): -1, mono_exps(b=2): 3, mono_exps(b=5): 1,
             mono_exps(x=6): 2}, order=8)
    for total in (small + big, big + small):
        assert total.order == 4
        assert total.terms == {mono_exps(b=2): 3, mono_exps(b=3): Fraction(1, 2)}
    assert (small - big).terms == {mono_exps(a=1): 2, mono_exps(b=2): -3,
                                   mono_exps(b=3): Fraction(1, 2)}
    assert (big - small).order == 4 and big.terms[mono_exps(b=5)] == 1


def test_mul_truncates():
    b = Poly.var("b", REGULAR, 4)
    assert (b ** 4).coeff_mono(b=4) == 1
    assert (b ** 5).is_zero()
    x = Poly.var("x", REGULAR, 4)
    assert (b * x * b * x).coeff_mono(b=2, x=2) == 1


def test_grading_mismatch_raises():
    with pytest.raises(GradingError):
        Poly.var("a", REGULAR, 8) + Poly.var("a", UNIT, 8)


def test_partial_and_integrate():
    p = Poly.monomial(3, REGULAR, 8, b=2, x=2)
    assert p.partial("b") == Poly.monomial(6, REGULAR, 7, b=1, x=2)
    assert p.partial("b").order == 7
    q = Poly.monomial(1, REGULAR, 8, x=2)
    assert q.integrate("x") == Poly.monomial(Fraction(1, 3), REGULAR, 9, x=3)
    # derivative of an exact monomial round-trips through integration
    assert p.partial("x").integrate("x").with_order(8) == p


def test_components_and_weights():
    p = (Poly.var("a", REGULAR, 8)
         + Poly.monomial(2, REGULAR, 8, b=2, x=2)
         + Poly.monomial(1, REGULAR, 8, a=2, b=1, x=1))
    assert p.min_weight() == 2
    assert p.component(4) == Poly.monomial(2, REGULAR, 8, b=2, x=2)
    assert p.up_to_weight(4) == p.component(2) + p.component(4)
    ws = [w for w, _ in p.weighted_components()]
    assert ws == [2, 4, 6]


def test_coeff_series_and_set_zero():
    p = (Poly.monomial(3, REGULAR, 8, a=1, b=2, x=2)
         + Poly.monomial(5, REGULAR, 8, b=2, x=2)
         + Poly.monomial(7, REGULAR, 8, b=2, x=3))
    s = p.coeff_series(b=2, x=2)
    assert s == Poly.monomial(3, REGULAR, 8, a=1) + Poly.const(5, REGULAR, 8)
    assert p.set_zero("a") == (Poly.monomial(5, REGULAR, 8, b=2, x=2)
                               + Poly.monomial(7, REGULAR, 8, b=2, x=3))


def test_substitute_filtration_guard():
    p = Poly.var("a", REGULAR, 8)
    low = Poly.var("b", REGULAR, 8)  # weight 1 < weight 2 of a
    with pytest.raises(SubstitutionError):
        p.substitute({"a": low})


def test_substitute_composition():
    g, L = UNIT, 6
    x = Poly.var("x", g, L)
    y = Poly.var("y", g, L)
    p = x * x + y
    q = p.substitute({"x": x + y, "y": x * y})
    expected = (x + y) * (x + y) + x * y
    assert q == expected


def test_substitute_matches_naive_random():
    rng = random.Random(0)
    g, L = UNIT, 5
    vals = {}
    for v in ("a", "b", "x"):
        vals[v] = (Poly.var(v, g, L)
                   + Poly.monomial(rng.randint(-2, 2), g, L, b=1, x=1))
    p = (Poly.monomial(Fraction(2, 3), g, L, a=1, x=2)
         + Poly.monomial(-1, g, L, b=3))
    direct = p.substitute(vals)
    naive = (vals["a"] * vals["x"] * vals["x"] * Fraction(2, 3)
             - vals["b"] * vals["b"] * vals["b"])
    assert direct == naive


def test_str_canonical_and_stable():
    p = (Poly.var("a", REGULAR, 8)
         + Poly.monomial(1, REGULAR, 8, b=1, x=1)
         - Poly.monomial(Fraction(3, 2), REGULAR, 8, b=2, x=2))
    assert str(p) == "a + b x - 3/2 b^2 x^2"
    assert str(Poly.zero(REGULAR, 8)) == "0"
    assert str(-Poly.var("b", REGULAR, 8)) == "-b"


def test_scalar_ops():
    b = Poly.var("b", REGULAR, 8)
    assert 2 * b == b + b
    assert b * Fraction(1, 2) + b * Fraction(1, 2) == b
    assert (1 - b).constant_term() == 1


coefs = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def polys(draw, g, order: int, lo: int, hi: int, max_terms: int = 4,
          min_terms: int = 0) -> Poly:
    """Random nonzero terms of weight lo..hi in all five variables; a term
    above `order` is dropped on construction."""
    monos = [e for w in range(lo, hi + 1) for e in weighted_monomials(w, VARS, g)]
    if not monos:
        return Poly.zero(g, order)
    exps = draw(st.lists(st.sampled_from(monos), min_size=min_terms,
                         max_size=max_terms, unique=True))
    return Poly({e: draw(coefs.filter(bool)) for e in exps}, g, order)


@st.composite
def substitutions(draw):
    """(subs, grading, order), each series of weighted order at least the
    weight of its variable.  A series may also be zero, which annihilates
    every term that uses it, or raise weights (its variable squared plus
    heavier terms), so that some terms have images wholly above the order
    and are skipped."""
    g = draw(st.sampled_from([REGULAR, UNIT, singular_grading(3)]))
    L = draw(st.integers(2, 6))
    names = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=3,
                          unique=True))
    subs = {}
    for v in names:
        order = draw(st.integers(L - 1, L + 1))
        w = g.weight_of(v)
        kind = draw(st.sampled_from(["series", "zero", "raising"]))
        if kind == "zero":
            s = Poly.zero(g, order)
        elif kind == "raising":
            s = Poly.var(v, g, order) ** 2 + draw(polys(g, order, 2 * w + 1, order))
        else:
            s = draw(polys(g, order, w, order))
        subs[v] = s
    return subs, g, L


@settings(max_examples=60, deadline=None)
@given(substitutions(), st.data())
def test_substitution_reused_matches_fresh(case, data):
    subs, g, L = case
    sub = Substitution(subs, g, L)
    assert sub.order == min([L] + [s.order for s in subs.values()])
    for _ in range(3):
        order = data.draw(st.integers(0, sub.order))
        p = data.draw(polys(g, order, 0, order + 1, 6))
        got, fresh = sub(p), p.substitute(subs)
        assert got == fresh and got.order == fresh.order == order


def sympy_compose(p: Poly, subs: dict) -> dict:
    """p(subs) by sympy, expanded and truncated at p's order by weight."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(VARS)

    def expr(q: Poly):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*(t ** e for t, e in zip(syms, exps)))
                           for exps, c in q.terms.items()))

    images = {syms[VAR_INDEX[v]]: expr(s) for v, s in subs.items()}
    composed = sympy.expand(expr(p).subs(images, simultaneous=True))
    return {exps: Fraction(int(c.p), int(c.q))
            for exps, c in sympy.Poly(composed, *syms).terms()
            if c != 0 and p.grading.weight(exps) <= p.order}


@settings(max_examples=40, deadline=None)
@given(substitutions(), st.data())
def test_substitution_matches_sympy(case, data):
    pytest.importorskip("sympy")
    subs, g, L = case
    sub = Substitution(subs, g, L)
    for _ in range(2):
        order = data.draw(st.integers(0, sub.order))
        p = data.draw(polys(g, order, 0, order + 1))
        assert sub(p).terms == sympy_compose(p, subs)


@settings(max_examples=60, deadline=None)
@given(substitutions(), st.data())
def test_relaxed_substitution_matches_fresh(case, data):
    # parts set one weight at a time give, weight by weight, the parts of
    # the substitution of the whole series
    subs, g, L = case
    fresh = Substitution(subs, g, L)
    table = RelaxedSubstitution(subs, g)
    p = data.draw(polys(g, fresh.order, 0, fresh.order + 1, 6))
    want = fresh(p)
    for w in range(fresh.order + 1):
        for v, s in subs.items():
            if w >= g.weight_of(v):
                table.extend(v, s.component(w))
        got = table.part(p, w)
        assert got.terms == want.component(w).terms and got.order == w
    for v, s in subs.items():
        assert table.series(v) == s.with_order(fresh.order)


@settings(max_examples=40, deadline=None)
@given(substitutions(), st.data())
def test_relaxed_part_of_polys_read_repeatedly(case, data):
    # each poly is grouped by weight at its first read; later reads of it,
    # interleaved with reads of others and of an equal copy, still give the
    # parts of the fresh substitution at every weight
    subs, g, L = case
    fresh = Substitution(subs, g, L)
    table = RelaxedSubstitution(subs, g)
    ps = [data.draw(polys(g, fresh.order, 0, fresh.order + 1, 6))
          for _ in range(3)]
    ps.append(Poly(ps[0].terms, g, ps[0].order))
    want = [fresh(p) for p in ps]
    for w in range(fresh.order + 1):
        for v, s in subs.items():
            if w >= g.weight_of(v):
                table.extend(v, s.component(w))
        for _ in range(2):
            for p, full in zip(ps, want):
                got = table.part(p, w)
                assert got.terms == full.component(w).terms and got.order == w


def test_relaxed_substitution_reads_above_valuations():
    # series that vanish at weight 1: [u v]_w and [u^2 v]_(w+2) read only
    # parts of weight <= w - 2, so they are known before the weight-w parts
    g, L = UNIT, 8
    b, x = Poly.var("b", g, L), Poly.var("x", g, L)
    u, v = b * b + x * x * x, b * x - b * b * x
    table = RelaxedSubstitution(["b", "x"], g)
    fresh = Substitution({"b": u, "x": v}, g, L)
    for w in range(1, L - 1):
        if w >= 3:
            assert table.part(b * x, w) == fresh(b * x).component(w).with_order(w)
            assert table.part(b * b * x, w + 2) == \
                fresh(b * b * x).component(w + 2).with_order(w + 2)
        with pytest.raises(SubstitutionError, match="not set"):
            table.part(b, w)
        table.extend("b", u.component(w))
        table.extend("x", v.component(w))


def test_relaxed_substitution_reads_only_parts_set():
    a, x, y = (Poly.var(v, UNIT, 4) for v in "axy")
    table = RelaxedSubstitution(["y"], UNIT)
    table.extend("y", a.with_order(1))
    # [y^2 + x y]_2 reads y through weight 1 only
    assert table.part(y * y + x * y, 2) == (a * a + a * x).with_order(2)
    with pytest.raises(SubstitutionError, match="weight-2 part .* not set"):
        table.part(y, 2)
    with pytest.raises(SubstitutionError, match="not set"):
        table.part(y * y * y, 4)
    with pytest.raises(ValueError, match="homogeneous of weight 2"):
        table.extend("y", a + a * a)


# ---- ring laws and a plain-dict oracle ------------------------------------

GRADINGS = [REGULAR, UNIT, singular_grading(3), singular_grading(4),
            singular_grading(5)]


def ref_trunc(terms: dict, g, order: int) -> dict:
    return {e: c for e, c in terms.items() if c and g.weight(e) <= order}


def ref_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(p: dict, q: dict, g, order: int) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_trunc(out, g, order)


def ref_substitute(p: dict, subs: dict, g, order: int) -> dict:
    """p(subs) by expanding every power, truncated at `order`."""
    out: dict = {}
    for exps, c in p.items():
        term = {tuple(0 if VARS[i] in subs else e for i, e in enumerate(exps)): c}
        for v, s in subs.items():
            for _ in range(exps[VAR_INDEX[v]]):
                term = ref_mul(term, s, g, order)
        out = ref_add(out, term)
    return ref_trunc(out, g, order)


def assert_canonical(p: Poly):
    """The stored form: one positive denominator in lowest terms with the
    numerators, none of them zero."""
    assert p._den > 0 and gcd(p._den, *p._nums.values()) == 1
    assert all(p._nums.values())


@st.composite
def graded_polys(draw, count: int, same_order: bool = False):
    """(grading, [polys]) with up to 6 terms each, some of weight above the
    order, which construction drops."""
    g = draw(st.sampled_from(GRADINGS))
    order = draw(st.integers(0, 8))
    ps = []
    for _ in range(count):
        L = order if same_order else draw(st.integers(max(order - 2, 0), order + 2))
        ps.append(draw(polys(g, L, 0, L + 1, 6)))
    return g, ps


@settings(max_examples=80, deadline=None)
@given(graded_polys(3, same_order=True),
       coefs.filter(bool))
def test_ring_laws(case, c):
    g, (p, q, r) = case
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p and p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + q - q == p and p - p == Poly.zero(g, p.order)
    assert (p * c) * (1 / c) == p
    assert -(-p) == p and p - q == -(q - p)
    for s in (p + q, p * q, p - q, p * c, -p, p ** 2):
        assert_canonical(s)


@settings(max_examples=80, deadline=None)
@given(graded_polys(2), coefs, st.data())
def test_operations_match_plain_dicts(case, c, data):
    g, (p, q) = case
    P, Q = dict(p.terms), dict(q.terms)
    L = min(p.order, q.order)
    checks = [
        (p + q, ref_trunc(ref_add(P, Q), g, L), L),
        (p - q, ref_trunc(ref_add(P, {e: -v for e, v in Q.items()}), g, L), L),
        (-p, {e: -v for e, v in P.items()}, p.order),
        (p * c, ref_trunc({e: v * c for e, v in P.items()}, g, p.order), p.order),
        (p * q, ref_mul(P, Q, g, L), L),
    ]
    var = data.draw(st.sampled_from(VARS))
    i, w = VAR_INDEX[var], g.weight_of(var)
    n = data.draw(st.integers(0, 3))
    falling = P
    for _ in range(n):
        falling = {e[:i] + (e[i] - 1,) + e[i + 1:]: v * e[i]
                   for e, v in falling.items() if e[i]}
    checks.append((p.partial(var, n), falling, p.order - n * w))
    checks.append((p.integrate(var),
                   {e[:i] + (e[i] + 1,) + e[i + 1:]: v / (e[i] + 1)
                    for e, v in P.items()}, p.order + w))
    weight = data.draw(st.integers(0, 9))
    checks.append((p.component(weight),
                   {e: v for e, v in P.items() if g.weight(e) == weight}, p.order))
    checks.append((p.up_to_weight(weight), ref_trunc(P, g, weight), p.order))
    checks.append((p.with_order(weight), ref_trunc(P, g, weight), weight))
    h = data.draw(st.sampled_from(GRADINGS))
    checks.append((p.with_grading(h, weight), ref_trunc(P, h, weight), weight))
    fixed = data.draw(st.dictionaries(st.sampled_from(VARS), st.integers(0, 3),
                                      max_size=2))
    idx = {VAR_INDEX[v]: e for v, e in fixed.items()}
    checks.append((p.coeff_series(**fixed),
                   {tuple(0 if j in idx else e for j, e in enumerate(exps)): v
                    for exps, v in P.items()
                    if all(exps[j] == e for j, e in idx.items())}, p.order))
    zeroed = data.draw(st.lists(st.sampled_from(VARS), max_size=2, unique=True))
    checks.append((p.set_zero(*zeroed),
                   {e: v for e, v in P.items()
                    if not any(e[VAR_INDEX[z]] for z in zeroed)}, p.order))
    for got, want, order in checks:
        assert got.terms == want and got.order == order
        assert_canonical(got)
    assert sum((part for _, part in p.weighted_components()),
               Poly.zero(g, p.order)) == p
    assert p.min_weight() == min((g.weight(e) for e in P), default=None)


@settings(max_examples=60, deadline=None)
@given(substitutions(), st.data())
def test_substitutions_match_plain_dicts(case, data):
    subs, g, L = case
    sub = Substitution(subs, g, L)
    table = RelaxedSubstitution(subs, g)
    plain = {v: dict(s.terms) for v, s in subs.items()}
    p = data.draw(polys(g, sub.order, 0, sub.order + 1, 6))
    want = ref_substitute(dict(p.terms), plain, g, sub.order)
    got = sub(p)
    assert got.terms == want and got.order == sub.order
    assert_canonical(got)
    for w in range(sub.order + 1):
        for v, s in subs.items():
            if w >= g.weight_of(v):
                table.extend(v, s.component(w))
        part = table.part(p, w)
        assert part.terms == {e: c for e, c in want.items() if g.weight(e) == w}
        assert_canonical(part)


@settings(max_examples=60, deadline=None)
@given(graded_polys(1), coefs.filter(bool))
def test_equal_polys_built_different_ways_hash_alike(case, c):
    g, (p,) = case
    q = Poly.var("b", g, p.order)
    ways = [p, Poly(p.terms, g, p.order), Poly(dict(p.terms), g, p.order + 1),
            p + q - q, (p * c) * (1 / c), p * 2 * Fraction(1, 2),
            sum((part for _, part in p.weighted_components()), Poly.zero(g, p.order)),
            p.with_grading(UNIT, 3 * p.order).with_grading(g, p.order)]
    for other in ways:
        assert other == p and hash(other) == hash(p)
        assert_canonical(other)
    assert p + 1 != p
    with pytest.raises(TypeError):
        p.terms[mono_exps()] = Fraction(1)  # the view is read-only


def test_order_above_the_packing_limit_is_refused():
    from paracr.poly import MAX_ORDER
    with pytest.raises(ValueError, match="MAX_ORDER"):
        Poly.zero(UNIT, MAX_ORDER + 1)
    with pytest.raises(ValueError, match="MAX_ORDER"):
        Poly({mono_exps(x=1): 1}, UNIT, MAX_ORDER + 1)
    x = Poly.var("x", UNIT, MAX_ORDER)
    with pytest.raises(ValueError, match="MAX_ORDER"):
        x.integrate("x")
    with pytest.raises(ValueError, match="MAX_ORDER"):
        x.with_order(MAX_ORDER + 1)
    # at the limit, a sum of two exponents still fits its field: x^L x^L is
    # above the order and dropped, not carried into the neighbouring field
    b = Poly.var("b", UNIT, MAX_ORDER)
    top = Poly.monomial(1, UNIT, MAX_ORDER, x=MAX_ORDER)
    assert (top + b) * (top + b) == b * b
    assert (top * top).is_zero() and top.coeff_mono(x=MAX_ORDER) == 1
    assert top.partial("x").coeff_mono(x=MAX_ORDER - 1) == MAX_ORDER
    with pytest.raises(ValueError, match="exponents"):
        Poly({(0, 0, -1, 0, 0): 1}, UNIT, 4)
