"""Command line front end: polynomial parsing, subcommand dispatch, and
deterministic text/JSON serialization of every report.

Grammar for polynomial input (whitespace-insensitive, juxtaposition is
multiplication):

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := [coef] factor*
    factor := var ('^' nat)?
    coef   := int ('/' posint)?

Surfaces use the variables a, b, x, y; ODE right-hand sides use x, y, p
(p stands for y').  Files hold one polynomial in UTF-8; '#' starts a comment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import autodetect, cmoperator, odebridge, regnorm, singnorm
from .poly import Poly, REGULAR, UNIT, VARS, SubstitutionError, \
    format_monomial, singular_grading
from .series import SolveError
from .surfaces import MapError, PointMap, SurfaceJet, preliminary_reduce

DEFAULT_MAX_ORDER = 24
DEFAULT_REGULAR_ORDER = 8
SURFACE_VARS = frozenset("abx")
ODE_VARS = frozenset("xyp")

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class ParseError(ValueError):
    """Syntax or vocabulary error in polynomial input, with position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def location(self) -> tuple:
        before = self.text[:self.pos]
        line = before.count("\n") + 1
        column = self.pos - (before.rfind("\n") + 1) + 1
        return line, column

    def error(self, message: str):
        raise ParseError(message, *self.location())

    def skip_ws(self):
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "#":
                nl = self.text.find("\n", self.pos)
                self.pos = len(self.text) if nl < 0 else nl
            elif c.isspace():
                self.pos += 1
            else:
                break

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        return int(self.text[start:self.pos])


def parse_poly(text: str, allowed_vars: set, grading, order: int) -> Poly:
    """Parse the grammar above into an exact polynomial.  Terms beyond the
    truncation order are rejected rather than silently dropped."""
    s = _Scanner(text)
    result = Poly.zero(grading, order)
    sign = 1
    c = s.peek()
    if c in "+-":
        sign = -1 if s.take() == "-" else 1
    if not s.peek():
        s.error("empty polynomial")
    while True:
        result = result + _parse_term(s, allowed_vars, grading, order) * sign
        c = s.peek()
        if not c:
            break
        if c not in "+-":
            s.error(f"expected '+' or '-', found {c!r}")
        sign = -1 if s.take() == "-" else 1
    return result


def _parse_term(s: _Scanner, allowed_vars: set, grading, order: int) -> Poly:
    coef = Fraction(1)
    have_any = False
    if s.peek().isdigit():
        num = s.integer()
        den = 1
        if s.peek() == "/":
            s.take()
            den = s.integer()
            if den == 0:
                s.error("zero denominator")
        coef = Fraction(num, den)
        have_any = True
    exps: dict = {}
    while s.peek().isalpha():
        line, column = s.location()
        v = s.take()
        if v not in VARS:
            raise ParseError(f"unknown variable {v!r}", line, column)
        if v not in allowed_vars:
            raise ParseError(
                f"variable {v!r} not allowed here (expected one of "
                f"{', '.join(sorted(allowed_vars))})", line, column)
        e = 1
        if s.peek() == "^":
            s.take()
            e = s.integer()
        exps[v] = exps.get(v, 0) + e
        have_any = True
    if not have_any:
        s.error("expected a term")
    mono = Poly.monomial(coef, grading, order, **exps)
    if coef != 0 and mono.is_zero():
        s.error(f"term exceeds the truncation order {order}")
    return mono


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def poly_json(p: Poly) -> list:
    out = []
    for exps, c in p.sorted_terms():
        out.append({"coef": str(c),
                    "exps": {v: e for v, e in zip(VARS, exps) if e}})
    return out


def pointmap_json(pm: PointMap) -> dict:
    return {name: {"text": str(c), "terms": poly_json(c)}
            for name, c in pm.components().items()}


def vfield_json(v) -> dict:
    return {name: {"text": str(c), "terms": poly_json(c)}
            for name, c in (("eta", v.eta), ("alpha", v.alpha),
                            ("beta", v.beta), ("xi", v.xi))}


def emit(report: dict, as_json: bool, text_lines: list):
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _read_expr(args) -> str:
    if args.expr is not None:
        return args.expr
    if args.input is not None:
        try:
            with open(args.input, encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read --input {args.input}: "
                              f"{exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"--input {args.input} is not UTF-8 text") from exc
    raise ConfigError("provide --expr or --input")


def _check_bound(flag: str, value: int, lowest: int):
    guard = int(os.environ.get("PARACR_MAX_ORDER", DEFAULT_MAX_ORDER))
    if value < lowest:
        raise ConfigError(f"{flag} must be at least {lowest}")
    if value > guard:
        raise ConfigError(f"{flag} {value} exceeds the guard {guard} "
                          "(set PARACR_MAX_ORDER to raise it)")


def _read_input(args, grading, default_order: int = DEFAULT_REGULAR_ORDER,
                variables: frozenset = SURFACE_VARS) -> Poly:
    """The subcommand's polynomial, parsed at --order (or `default_order`)
    after that order passes the guard."""
    order = args.order if args.order is not None else default_order
    _check_bound("--order", order, 2)
    return parse_poly(_read_expr(args), variables, grading, order)


def _finite_type(F: Poly) -> singnorm.TypeData:
    t = singnorm.finite_type(SurfaceJet(F))
    if t is None:
        raise MapError("no mixed term found; type undetermined at this order")
    return t


def _compose_exact(transform: PointMap, pre: PointMap) -> PointMap:
    """`transform` after `pre`, in their type-k grading if `pre` keeps its
    filtration, else in the unit grading through degree L // k."""
    try:
        return transform.compose(pre)
    except SubstitutionError:
        d = transform.Xc.order // transform.Xc.grading.type_k
        return transform.with_grading(UNIT, d).compose(pre.with_grading(UNIT, d))


def cmd_tables(args) -> int:
    _check_bound("--ell", args.ell, 0)
    rep = cmoperator.analyze(args.ell)
    kernel = [vfield_json(v) for v in rep.kernel]
    report = {
        "ell": rep.ell,
        "domainDim": rep.domain_dim,
        "imageDim": rep.image_dim,
        "kernelDim": rep.kernel_dim,
        "kernel": kernel,
        "complement": [format_monomial(e) for e in rep.complement],
    }
    lines = [f"weight {rep.ell}: domain {rep.domain_dim}, "
             f"image {rep.image_dim}, kernel {rep.kernel_dim}"]
    for i, v in enumerate(rep.kernel):
        lines.append(f"  kernel[{i}]: eta={v.eta}  alpha={v.alpha}  "
                     f"beta={v.beta}  xi={v.xi}")
    if rep.complement:
        lines.append("  retained monomials: "
                     + ", ".join(format_monomial(e) for e in rep.complement))
    emit(report, args.json, lines)
    return EXIT_OK


def cmd_normalize(args) -> int:
    F = _read_input(args, REGULAR)
    surface = SurfaceJet(F)
    reduced, pre = preliminary_reduce(surface)
    if args.geometric:
        rep = regnorm.geometric_normalize(reduced)
    else:
        rep = regnorm.normalize_jet(reduced)
    transform = _compose_exact(rep.transform, pre)
    report = {
        "normalized": {"text": str(rep.normalized.F),
                       "terms": poly_json(rep.normalized.F)},
        "transform": pointmap_json(transform),
        "conditions": {k: bool(v) for k, v in rep.conditions.items()},
    }
    lines = [f"normalized: {rep.normalized.F}"]
    for name, c in transform.components().items():
        lines.append(f"  {name} = {c}")
    lines.append("conditions: " + " ".join(
        f"({k}):{'ok' if v else 'FAIL'}" for k, v in rep.conditions.items()))
    emit(report, args.json, lines)
    return EXIT_OK


def cmd_normalize_singular(args) -> int:
    t = _finite_type(parse_poly(_read_expr(args), SURFACE_VARS, UNIT, 64))
    if t.regular:
        raise MapError("jet is of type 2; use `normalize`")
    F = _read_input(args, UNIT, t.k + 6)
    reduced, pre, t = singnorm.prelim_reduce_singular(SurfaceJet(F))
    rep = singnorm.normalize_singular_jet(reduced, t)
    transform = _compose_exact(rep.transform, pre)
    report = {
        "type": {"k": t.k, "m": t.m, "n": t.n,
                 "gammas": [str(c) for c in t.gammas]},
        "normalized": {"text": str(rep.normalized.F),
                       "terms": poly_json(rep.normalized.F)},
        "transform": pointmap_json(transform),
        "ok": rep.ok,
    }
    lines = [f"type k={t.k}, leading monomial b^{t.m} x^{t.n}",
             f"normalized: {rep.normalized.F}"]
    for name, c in transform.components().items():
        lines.append(f"  {name} = {c}")
    emit(report, args.json, lines)
    return EXIT_OK


def cmd_type(args) -> int:
    F = _read_input(args, UNIT)
    t = singnorm.finite_type(SurfaceJet(F))
    if t is None:
        report = {"verdict": "undetermined", "maxOrder": F.order}
        emit(report, args.json,
             [f"undetermined: no mixed term through degree {F.order}"])
        return EXIT_DOMAIN
    verdict = "regular" if t.regular else "singular"
    report = {"verdict": verdict, "k": t.k, "m": t.m, "n": t.n}
    emit(report, args.json, [f"{verdict}: k={t.k}, m={t.m}, n={t.n}"])
    return EXIT_OK


def cmd_ode2surf(args) -> int:
    B = _read_input(args, UNIT, variables=ODE_VARS)
    surface = odebridge.ode_to_surface(odebridge.OdeJet(B), B.order + 2)
    report = {"surface": {"text": str(surface.F),
                          "terms": poly_json(surface.F)},
              "order": surface.order}
    emit(report, args.json, [f"F = {surface.F}"])
    return EXIT_OK


def cmd_surf2ode(args) -> int:
    F = _read_input(args, UNIT)
    ode, data = odebridge.surface_to_ode(SurfaceJet(F))
    report = {"B": {"text": str(ode.B), "terms": poly_json(ode.B)},
              "order": ode.order,
              "aSeries": {"text": str(data.a_series)},
              "bSeries": {"text": str(data.b_series)},
              "phi": {"text": str(data.phi)}}
    emit(report, args.json, [f"B = {ode.B}",
                             f"a(x, y, p) = {data.a_series}",
                             f"b(x, y, p) = {data.b_series}",
                             f"phi = {data.phi}"])
    return EXIT_OK


def cmd_check_normal(args) -> int:
    F = _read_input(args, REGULAR)
    conditions = regnorm.check_normal_conditions(SurfaceJet(F))
    ok = all(conditions.values())
    report = {"normal": ok,
              "conditions": {k: bool(v) for k, v in conditions.items()}}
    emit(report, args.json,
         [f"normal: {str(ok).lower()}",
          "conditions: " + " ".join(
              f"({k}):{'ok' if v else 'FAIL'}" for k, v in conditions.items())])
    return EXIT_OK


def cmd_check_ode_normal(args) -> int:
    B = _read_input(args, UNIT, variables=ODE_VARS)
    offenders = odebridge.check_ode_normal(odebridge.OdeJet(B))
    ok = not offenders
    report = {"normal": ok,
              "offending": [{"family": list(ij), "terms": poly_json(p)}
                            for ij, p in offenders.items()]}
    lines = [f"normal: {str(ok).lower()}"]
    for ij, p in offenders.items():
        lines.append(f"  family {ij}: {p}")
    emit(report, args.json, lines)
    return EXIT_OK


def cmd_autos(args) -> int:
    probe = _read_input(args, UNIT)
    t = _finite_type(probe)
    grading = REGULAR if t.regular else singular_grading(t.k)
    F = parse_poly(_read_expr(args), SURFACE_VARS, grading, probe.order)
    rep = autodetect.isotropy_report(SurfaceJet(F), t)
    report = {"verdict": rep.verdict, "order": rep.order,
              "m": rep.m, "n": rep.n,
              "fields": {name: vfield_json(v)
                         for name, v in sorted(rep.fields.items())},
              "pattern": rep.pattern}
    lines = [f"verdict: {rep.verdict} (up to weight {rep.order})"]
    for name, v in sorted(rep.fields.items()):
        lines.append(f"  {name}: eta={v.eta}  alpha={v.alpha}  "
                     f"beta={v.beta}  xi={v.xi}")
    emit(report, args.json, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paracr",
        description="Normal forms for surface jets y = F(a, b, x) and "
                    "second-order ODEs y'' = B(x, y, y'), in exact "
                    "rational arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, expr=True, order=True):
        p = sub.add_parser(name, help=help_text)
        if expr:
            p.add_argument("--expr", help="inline polynomial")
            p.add_argument("--input", help="file with one polynomial")
        if order:
            p.add_argument("--order", type=int, help="truncation order")
        p.add_argument("--json", action="store_true",
                       help="canonical JSON output")
        p.set_defaults(func=func)
        return p

    p = add("tables", cmd_tables,
            "operator dimensions and kernel at one weight", expr=False,
            order=False)
    p.add_argument("--ell", type=int, required=True, help="output weight")

    p = add("normalize", cmd_normalize, "regular (type 2) normal form")
    p.add_argument("--geometric", action="store_true",
                   help="use the chain-based construction")

    add("normalize-singular", cmd_normalize_singular,
        "singular (type k > 2) normal form")
    add("type", cmd_type, "finite type detection")
    add("ode2surf", cmd_ode2surf, "solution manifold of y'' = B(x, y, p)")
    add("surf2ode", cmd_surf2ode, "ODE right-hand side of a surface")
    add("check-normal", cmd_check_normal, "regular normal form conditions")
    add("check-ode-normal", cmd_check_ode_normal,
        "ODE coefficient-family conditions")
    add("autos", cmd_autos, "isotropic infinitesimal automorphisms")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MapError, SolveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
