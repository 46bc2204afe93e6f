import contextlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from paracr import cli, singnorm
from paracr.poly import MAX_ORDER, Poly, REGULAR, UNIT, VARS, mono_exps
from conftest import random_regular_jet
from paracr.surfaces import SurfaceJet, preliminary_reduce
from test_acceptance import GOLDEN_NORMALIZE


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_simple():
    p = cli.parse_poly("a + b x - 3/2 b^2 x^2", {"a", "b", "x"}, REGULAR, 8)
    assert p == (Poly.var("a", REGULAR, 8)
                 + Poly.monomial(1, REGULAR, 8, b=1, x=1)
                 + Poly.monomial(Fraction(-3, 2), REGULAR, 8, b=2, x=2))


def test_parse_print_round_trip():
    rng = random.Random(21)
    for _ in range(10):
        S = random_regular_jet(rng)
        p = S.F
        assert cli.parse_poly(str(p), {"a", "b", "x"}, REGULAR, 8) == p


def test_parse_juxtaposition_and_powers():
    p = cli.parse_poly("2a^2bx^3", {"a", "b", "x"}, UNIT, 8)
    assert p == Poly.monomial(2, UNIT, 8, a=2, b=1, x=3)
    p = cli.parse_poly("bb", {"a", "b", "x"}, UNIT, 8)
    assert p == Poly.monomial(1, UNIT, 8, b=2)


def test_parse_comments_and_newlines():
    text = "a  # the graph variable\n + b x  # leading term\n"
    p = cli.parse_poly(text, {"a", "b", "x"}, REGULAR, 8)
    assert p == (Poly.var("a", REGULAR, 8)
                 + Poly.monomial(1, REGULAR, 8, b=1, x=1))


def test_parse_error_positions():
    with pytest.raises(cli.ParseError) as info:
        cli.parse_poly("a + q", {"a", "b", "x"}, REGULAR, 8)
    assert "unknown variable 'q'" in str(info.value)
    assert (info.value.line, info.value.column) == (1, 5)
    with pytest.raises(cli.ParseError) as info:
        cli.parse_poly("a +\n+ b", {"a", "b", "x"}, REGULAR, 8)
    assert info.value.line == 2
    with pytest.raises(cli.ParseError):
        cli.parse_poly("", {"a", "b", "x"}, REGULAR, 8)
    with pytest.raises(cli.ParseError):
        cli.parse_poly("1/0 a", {"a", "b", "x"}, REGULAR, 8)
    with pytest.raises(cli.ParseError) as info:
        cli.parse_poly("p", {"a", "b", "x"}, REGULAR, 8)
    assert "not allowed here" in str(info.value)


def test_parse_rejects_over_order_terms():
    with pytest.raises(cli.ParseError) as info:
        cli.parse_poly("a + b^5 x^5", {"a", "b", "x"}, REGULAR, 8)
    assert "exceeds the truncation order" in str(info.value)


def test_parse_builds_one_polynomial():
    # terms are collected and the polynomial built once: repeated monomials
    # still add up, and the result equals the fold of one monomial per term
    rng = random.Random(5)
    monos = [e for e in ((i, j, l, 0, 0) for i in range(5) for j in range(9)
                         for l in range(9)) if REGULAR.weight(e) <= 8]
    terms = [(rng.choice(monos), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
             for _ in range(300)]
    text = " + ".join(f"{c.numerator}/{c.denominator} "
                      f"a^{e[0]} b^{e[1]} x^{e[2]}" for e, c in terms)
    text = text.replace("+ -", "- ")
    fold = Poly.zero(REGULAR, 8)
    for e, c in terms:
        fold = fold + Poly({e: c}, REGULAR, 8)
    assert cli.parse_poly(text, {"a", "b", "x"}, REGULAR, 8) == fold
    assert cli.parse_poly("a + a", {"a", "b", "x"}, REGULAR, 8) == \
        Poly.monomial(2, REGULAR, 8, a=1)
    assert cli.parse_poly("b x - x b", {"a", "b", "x"}, REGULAR, 8).is_zero()
    with pytest.raises(cli.ParseError, match="exceeds the truncation order"):
        cli.parse_poly("a + a - b^9", {"a", "b", "x"}, REGULAR, 8)


def test_tables_text_and_json(capsys):
    code, out, err = run(capsys, "tables", "--ell", "0")
    assert code == 0
    assert "domain 2, image 1, kernel 1" in out
    code, out, err = run(capsys, "tables", "--ell", "6", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["kernelDim"] == 0
    assert rep["complement"] == ["b^2 x^4", "b^4 x^2"]


def test_tables_ell_guard(capsys, monkeypatch):
    monkeypatch.delenv("PARACR_MAX_ORDER", raising=False)
    code, out, err = run(capsys, "tables", "--ell", "-1")
    assert code == 2 and "--ell must be at least 0" in err and not out
    code, out, err = run(capsys, "tables", "--ell", "25", "--json")
    assert code == 2 and "PARACR_MAX_ORDER" in err and not out
    for ell in ("0", "1"):
        code, out, err = run(capsys, "tables", "--ell", ell)
        assert code == 0 and out.startswith(f"weight {ell}:")


def test_autos_one_parameter_when_gcd_exceeds_one(capsys):
    code, out, err = run(capsys, "autos", "--order", "12", "--json",
                         "--expr", "a + b^2x^2 + b^3x^3")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "ONE_PARAMETER" and (rep["m"], rep["n"]) == (2, 2)
    assert list(rep["fields"]) == ["chi"]


def test_over_order_terms_rejected(capsys):
    # a^2 has degree 2 <= 6 but weight 8 > 6 in the type-4 grading of autos
    for cmd, expr in (("autos", "a + b^2x^2 + b^9"),
                      ("autos", "a + b^2x^2 + a^2"),
                      ("normalize-singular", "a + b^2x^2 + b^9")):
        code, out, err = run(capsys, cmd, "--order", "6", "--expr", expr)
        assert code == 2 and "exceeds the truncation order" in err, expr


def test_normalize_flat(capsys):
    code, out, err = run(capsys, "normalize", "--expr", "a + b x")
    assert code == 0
    assert out.startswith("normalized: a + b x")


def test_normalize_json_deterministic(capsys):
    argv = ("normalize", "--expr", "2a + 3b + x + bx + x^3", "--json")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["normalized"]["text"] == "a + b x"
    assert all(rep["conditions"].values())


def test_normalize_geometric_agrees(capsys):
    argv = ["normalize", "--expr", "a + bx + b^2x^2", "--json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *(argv + ["--geometric"]))
    assert (json.loads(out1)["normalized"]["text"]
            == json.loads(out2)["normalized"]["text"]
            == "a + b x + 10/3 b^4 x^4")


def test_normalize_singular(capsys):
    code, out, err = run(capsys, "normalize-singular",
                         "--expr", "a + b^2 x^2 + x^5", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["type"] == {"k": 4, "m": 2, "n": 2, "gammas": ["0"]}
    assert rep["normalized"]["text"] == "a + b^2 x^2"
    assert rep["ok"]


def test_normalize_singular_rejects_regular(capsys):
    code, out, err = run(capsys, "normalize-singular", "--expr", "a + b x")
    assert code == 1
    assert "type 2" in err


def test_type_command(capsys):
    code, out, err = run(capsys, "type", "--expr", "a + b^2 x^3", "--json")
    assert code == 0
    assert json.loads(out) == {"verdict": "singular", "k": 5, "m": 2, "n": 3}
    code, out, err = run(capsys, "type", "--expr", "a + b^5")
    assert code == 1
    assert "undetermined" in out


def test_type_agrees_with_normalize_singular(capsys):
    # absorbing the pure-b series turns a x into a x - b^2 x: type 3, not 4
    expr = "a + b^2x^2 + ax + b^2"
    code, out, err = run(capsys, "type", "--expr", expr, "--json")
    assert code == 0
    assert json.loads(out) == {"verdict": "singular", "k": 3, "m": 2, "n": 1}
    code, out, err = run(capsys, "normalize-singular", "--expr", expr, "--json")
    assert code == 0
    t = json.loads(out)["type"]
    assert (t["k"], t["m"], t["n"]) == (3, 2, 1)


def test_bx_cancelled_by_absorption(capsys, monkeypatch):
    # absorbing the pure-b series turns a x into a x - b x, which cancels the
    # raw b x: every command reads type 3, where the raw type is 2
    expr = "a + bx + b + ax + b^2x"
    code, out, err = run(capsys, "type", "--expr", expr, "--json")
    assert code == 0
    assert json.loads(out) == {"verdict": "singular", "k": 3, "m": 2, "n": 1}
    code, out, err = run(capsys, "normalize", "--expr", expr)
    assert code == 1 and "use the singular reduction" in err
    parse, parses = cli.parse_poly, []

    def counted(*args):
        parses.append(args)
        return parse(*args)

    monkeypatch.setattr(cli, "parse_poly", counted)
    code, out, err = run(capsys, "normalize-singular", "--order", "9",
                         "--expr", expr, "--json")
    assert code == 0, err
    assert len(parses) == 1
    rep = json.loads(out)
    t = rep["type"]
    assert (t["k"], t["m"], t["n"]) == (3, 2, 1) and rep["ok"]
    code, out, err = run(capsys, "normalize-singular", "--expr", expr)
    assert code == 0, err
    assert out.startswith("type k=3, leading monomial b^2 x\n")
    code, out, err = run(capsys, "autos", "--expr", expr, "--json")
    assert code == 0
    assert (json.loads(out)["m"], json.loads(out)["n"]) == (2, 1)


coefs = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def raw_unit_jets(draw) -> str:
    """ga a + b- and x-linear terms + a x + a x^2 + a pure-b series + mixed
    terms b^j x^l (j + l <= 4), printed for --expr.  The absorbed pure-b
    root a0(b) has degree <= 4, so every absorbed term has degree <= 6: a
    determined type k is at most 6, and a x^2 (weight k + 2) fits the order
    8 that autos parses at.  Half the time the b x coefficient is the one
    that the absorption of b cancels."""
    L = 8
    ga = draw(coefs.filter(lambda c: c != 0))
    terms = {mono_exps(a=1): ga}
    for e in (mono_exps(b=1), mono_exps(x=1), mono_exps(a=1, x=1),
              mono_exps(a=1, x=2), *(mono_exps(b=j) for j in (2, 3, 4)),
              *(mono_exps(b=j, x=l) for j in range(1, 4)
                for l in range(1, 5 - j))):
        terms[e] = draw(coefs)
    if draw(st.booleans()):
        b, ax = terms[mono_exps(b=1)], terms[mono_exps(a=1, x=1)]
        terms[mono_exps(b=1, x=1)] = b * ax / ga
    return str(Poly(terms, UNIT, L))


def _main(*argv) -> tuple:
    # `run` without capsys, which Hypothesis cannot reset between examples
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=20, deadline=None)
@given(raw_unit_jets())
@example("-a")
def test_commands_agree_with_type(expr):
    """`normalize` succeeds exactly on the jets that `type` calls regular,
    `normalize-singular` exactly on those it calls singular, with the same
    (k, m, n), and `autos` reports the same (m, n)."""
    code, out, err = _main("type", "--order", "8", "--expr", expr, "--json")
    t = json.loads(out)
    assert code == (1 if t["verdict"] == "undetermined" else 0), err
    regular, singular = t["verdict"] == "regular", t["verdict"] == "singular"
    code, out, err = _main("normalize", "--order", "8", "--expr", expr)
    assert code == (0 if regular else 1), err
    code, out, err = _main("normalize-singular", "--expr", expr, "--json")
    assert code == (0 if singular else 1), err
    if singular:
        rep = json.loads(out)
        assert rep["ok"]
        assert (rep["type"]["k"], rep["type"]["m"], rep["type"]["n"]) \
            == (t["k"], t["m"], t["n"])
    code, out, err = _main("autos", "--order", "8", "--expr", expr, "--json")
    assert code == (1 if t["verdict"] == "undetermined" else 0), err
    if code == 0:
        rep = json.loads(out)
        assert (rep["m"], rep["n"]) == (t["m"], t["n"])


def test_ode_round_trip_through_cli(capsys):
    code, out, err = run(capsys, "ode2surf", "--expr", "p^2", "--order", "6",
                         "--json")
    assert code == 0
    text = json.loads(out)["surface"]["text"]
    code, out, err = run(capsys, "surf2ode", "--expr", text, "--order", "8",
                         "--json")
    assert code == 0
    assert json.loads(out)["B"]["text"] == "p^2"


def test_check_normal_command(capsys):
    code, out, err = run(capsys, "check-normal", "--expr", "a + bx")
    assert code == 0
    assert out.startswith("normal: true")
    code, out, err = run(capsys, "check-normal", "--expr", "a + bx + x^3")
    assert code == 0
    assert out.startswith("normal: false")


def test_check_ode_normal_command(capsys):
    code, out, err = run(capsys, "check-ode-normal", "--expr", "p^4", "--json")
    assert code == 0
    assert json.loads(out) == {"normal": True, "offending": []}
    code, out, err = run(capsys, "check-ode-normal", "--expr", "y")
    assert code == 0
    assert out.startswith("normal: false")


def test_autos_command(capsys):
    code, out, err = run(capsys, "autos", "--expr", "a + b^2 x^2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "MODEL"
    assert set(rep["fields"]) == {"chi", "chi0", "chik"}
    code, out, err = run(capsys, "autos",
                         "--expr", "a + b x^2 + b^2 x^4", "--order", "10")
    assert code == 0
    assert out.startswith("verdict: ONE_PARAMETER")


def test_exit_codes(capsys):
    code, out, err = run(capsys, "normalize", "--expr", "a + q")
    assert code == 2 and "unknown variable" in err
    code, out, err = run(capsys, "normalize", "--expr", "2 b x")
    assert code == 1  # degenerate jet: MapError
    code, out, err = run(capsys, "normalize")
    assert code == 2 and "--expr or --input" in err


def test_expr_with_leading_minus(capsys):
    # a jet that starts with a sign is the value of --expr, not an option
    for expr in ("-a+bx", "-2a + bx"):
        code, out, err = run(capsys, "type", "--expr", expr, "--json")
        assert code == 0, err
        assert json.loads(out) == {"verdict": "regular", "k": 2, "m": 1, "n": 1}
    with pytest.raises(SystemExit) as exc:
        cli.main(["type", "--json", "--expr"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_order_guard(capsys, monkeypatch):
    code, out, err = run(capsys, "normalize", "--expr", "a + bx",
                         "--order", "30")
    assert code == 2 and "PARACR_MAX_ORDER" in err
    monkeypatch.setenv("PARACR_MAX_ORDER", "30")
    code, out, err = run(capsys, "normalize", "--expr", "a + bx",
                         "--order", "30")
    assert code == 0
    code, out, err = run(capsys, "normalize", "--expr", "a + bx",
                         "--order", "1")
    assert code == 2


def test_malformed_order_guard(capsys, monkeypatch):
    for value in ("abc", "-3", "1", "2.5"):
        monkeypatch.setenv("PARACR_MAX_ORDER", value)
        code, out, err = run(capsys, "type", "--expr", "a+bx")
        assert code == 2 and "PARACR_MAX_ORDER" in err and not out


def test_max_order_guard_stops_at_the_packing_limit(capsys, monkeypatch):
    # exponents are packed in fields that hold orders up to poly.MAX_ORDER
    monkeypatch.setenv("PARACR_MAX_ORDER", str(MAX_ORDER + 1))
    code, out, err = run(capsys, "type", "--expr", "a+bx")
    assert code == 2 and "PARACR_MAX_ORDER" in err and str(MAX_ORDER) in err
    assert not out
    monkeypatch.setenv("PARACR_MAX_ORDER", str(MAX_ORDER))
    code, out, err = run(capsys, "type", "--expr", "a+bx", "--json")
    assert code == 0, err


def test_input_file(capsys, tmp_path):
    path = tmp_path / "jet.txt"
    path.write_text("# a flat jet\na + b x\n", encoding="utf-8")
    code, out, err = run(capsys, "normalize", "--input", str(path))
    assert code == 0
    assert out.startswith("normalized: a + b x")


def test_input_file_unreadable(capsys, tmp_path):
    binary = tmp_path / "jet.bin"
    binary.write_bytes(b"a + b x \xc0\xff")
    for path in (tmp_path / "missing" / "jet.txt", tmp_path, binary):
        code, out, err = run(capsys, "normalize", "--input", str(path))
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(path) in lines[0]


def _json_poly(terms: list, order: int) -> Poly:
    """Printed terms as a Poly in the unit grading, cut at degree `order`."""
    return Poly({tuple(t["exps"].get(v, 0) for v in VARS): Fraction(t["coef"])
                 for t in terms}, UNIT, order)


def _transform_cases():
    for name, argv in sorted(GOLDEN_NORMALIZE.items()):
        if name.startswith("normalize_singular"):
            yield name, argv[0], argv[argv.index("--expr") + 1], \
                int(argv[argv.index("--order") + 1])
    yield "regular_linear_terms", "normalize", "2a + 3b + x + bx + x^3", 4


def _lowers_weights(pmap) -> bool:
    g = pmap.Xc.grading
    return any(c.min_weight() < g.weight_of(v)
               for v, c in zip("xyab", (pmap.Xc, pmap.Yc, pmap.Ac, pmap.Bc)))


@pytest.mark.parametrize("name, command, expr, order",
                         list(_transform_cases()))
def test_printed_transform_is_exact(capsys, name, command, expr, order):
    """With L the order and k the type, the printed map realises the printed
    normal form, Y(x, F) = N(A, B, X(x, F)), exactly in the unit grading
    through degree L // k.  When the preliminary map lowers weights in the
    type-k grading, that degree bounds every printed term.  The A and Y
    terms printed at one order are printed alike at a higher one."""
    printed = []
    for L in (order, order + 2):
        code, out, err = run(capsys, command, "--order", str(L), "--expr",
                             expr, "--json")
        assert code == 0, err
        rep = json.loads(out)
        d = L // rep.get("type", {"k": 2})["k"]
        F = cli.parse_poly(expr, cli.SURFACE_VARS, UNIT, L)
        if command == "normalize":
            pre = preliminary_reduce(SurfaceJet(F.with_grading(REGULAR, L)))[1]
        else:
            pre = singnorm.prelim_reduce_singular(SurfaceJet(F))[1]
        if _lowers_weights(pre):
            for c, m in rep["transform"].items():
                for t in m["terms"]:
                    assert sum(t["exps"].values()) <= d, (name, L, c, t)
        N = _json_poly(rep["normalized"]["terms"], d)
        X, Y, A, B = (_json_poly(rep["transform"][c]["terms"], d)
                      for c in "XYAB")
        on_surface = {"y": F.with_order(d)}
        assert Y.substitute(on_surface) == N.substitute(
            {"a": A, "b": B, "x": X.substitute(on_surface)}), (name, L)
        printed.append({c: {json.dumps(t, sort_keys=True)
                            for t in rep["transform"][c]["terms"]}
                        for c in "AY"})
    low, high = printed
    for c in "AY":
        assert low[c] <= high[c], (name, c, sorted(low[c] - high[c]))
