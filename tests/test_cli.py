import json
import random
from fractions import Fraction

import pytest

from paracr import cli, singnorm
from paracr.poly import Poly, REGULAR, UNIT, VARS
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
