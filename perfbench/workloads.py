"""The four workloads: seeded input generators, the timed program calls and
the checks of their outputs.

Inputs are plain dicts {exps: Fraction} made here, with types known by
construction; the program receives them as `Poly` objects or CLI text.  A
workload yields rounds, each a fixed list of operations, so every run
attempts whole rounds of the same make-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import checks as C
from checks import Jet, mono

REGULAR_ORDER = 8
ODE_ORDER = 6
SURFACE_ORDER = 8
SINGULAR_TYPES = tuple((k, m) for k in (3, 4, 5) for m in range(1, k))
PATTERN_PER_ROUND = 2
# the one CLI operation expected to fail; see CHANGES.md
FAILING_SURF2ODE = ["surf2ode", "--expr", "a + 2bx + b^2x^2", "--order", "8",
                    "--json"]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def coef(rng: random.Random, not_one: bool = False) -> Fraction:
    while True:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if c and not (not_one and c == 1):
            return c


def monomials(weights: tuple, lo: int, hi: int):
    """Exponent tuples over (a, b, x) with weight in [lo, hi]."""
    wa, wb, wx = weights[:3]
    for i in range(hi // wa + 1):
        for j in range((hi - wa * i) // wb + 1):
            for l in range((hi - wa * i - wb * j) // wx + 1):
                if wa * i + wb * j + wx * l >= lo:
                    yield mono(a=i, b=j, x=l)


def pure_series(rng: random.Random, terms: dict, var: str, lo: int, hi: int):
    for d in range(lo, hi + 1):
        terms[mono(**{var: d})] = coef(rng)


def gen_regular(rng: random.Random, L: int = REGULAR_ORDER,
                density: float = 0.4) -> dict:
    """Raw type-2 jet in the regular grading: a and bx coefficients other
    than 1, full pure-x and pure-b series from weight 2 (no b-linear term),
    one a b^2 term and random terms of weight 3..L in x and (a or b).  Terms
    in a and b alone make the preliminary loop sweep again; a b^2 is the only
    one, so every jet takes the same number of sweeps."""
    terms = {mono(a=1): coef(rng, True), mono(b=1, x=1): coef(rng, True),
             mono(a=1, b=2): coef(rng)}
    pure_series(rng, terms, "x", 2, L)
    pure_series(rng, terms, "b", 2, L)
    for e in monomials(C.REGULAR_W, 3, L):
        if e[C.IX] and (e[C.IA] or e[C.IB]) and rng.random() < density:
            terms[e] = coef(rng)
    return terms


def gen_singular(rng: random.Random, k: int, m: int, density: float = 0.35):
    """Raw type-k jet with leading b^m x^n, in the unit grading at order
    k + 6: a and b^m x^n coefficients other than 1, bottom-row terms, full
    pure-x and pure-b series from degree 2, one a b^2 term and random terms
    in x and (a or b).  Returns (terms, expected gammas after the
    preliminary reduction).

    a -> (a - pb(b)) / ga turns a^i b^j x^l into b-x terms of degree at least
    2i + j + l, so a term with l >= 1 is drawn only when 2i + j + l > k: the
    reduction then creates no mixed term of degree <= k, and the type and
    the bottom row are known by construction.  Terms in a and b alone make
    the preliminary loop sweep again; there is exactly one, a b^2, so every
    jet takes the same number of sweeps."""
    L, n = k + 6, k - m
    ga, lead = coef(rng, True), coef(rng, True)
    terms = {mono(a=1): ga, mono(b=m, x=n): lead, mono(a=1, b=2): coef(rng)}
    raw_gammas = []
    for j in range(m + 1, k):
        g = Fraction(rng.randint(-2, 2))
        raw_gammas.append(g)
        if g:
            terms[mono(b=j, x=k - j)] = g
    pure_series(rng, terms, "x", 2, L)
    pure_series(rng, terms, "b", 2, L)
    for e in monomials(C.UNIT_W, 2, L):
        i, j, l = e[C.IA], e[C.IB], e[C.IX]
        if not l or not (i or j) or (i == 0 and j + l <= k) or (i and 2 * i + j + l <= k):
            continue
        if rng.random() < density:
            terms[e] = coef(rng)
    for (i, j, l, _, _), c in terms.items():
        if i == 0:
            lower = j and l and (j + l < k or (j + l == k and j < m))
        else:
            lower = l and 2 * i + j + l <= k
        if lower:
            raise ValueError(f"generator drew a^{i} b^{j} x^{l}, which the "
                             f"reduction would turn into a mixed term of degree <= {k}")
    # the leading coefficient is scaled to 1 through b (m = 1) or y, a (m > 1)
    gammas = tuple(g / lead ** j if m == 1 else g / lead
                   for j, g in zip(range(m + 1, k), raw_gammas))
    return terms, gammas


def gen_pattern(rng: random.Random, k: int, m: int, L: int) -> dict:
    """On-pattern deformation a + b^m x^n + sum_r c_r (b^m x^n)^r."""
    n = k - m
    terms = {mono(a=1): Fraction(1), mono(b=m, x=n): Fraction(1)}
    for r in range(2, L // k + 1):
        terms[mono(b=r * m, x=r * n)] = coef(rng)
    return terms


def gen_ode(rng: random.Random, order: int = ODE_ORDER,
            density: float = 0.25) -> dict:
    """Random right-hand side B(x, y, p) of total degree <= order."""
    terms = {}
    for i in range(order + 1):
        for j in range(order + 1 - i):
            for l in range(order + 1 - i - j):
                if rng.random() < density:
                    terms[mono(x=i, y=j, p=l)] = coef(rng)
    return terms


def gen_surface(rng: random.Random, L: int = SURFACE_ORDER,
                density: float = 0.2) -> dict:
    """a + bx + random terms of total degree 2..L other than bx."""
    terms = {mono(a=1): Fraction(1), mono(b=1, x=1): Fraction(1)}
    for e in monomials(C.UNIT_W, 2, L):
        if e not in terms and rng.random() < density:
            terms[e] = coef(rng)
    return terms


def gen_regular_normal(rng: random.Random, L: int = REGULAR_ORDER,
                       violate: bool = False) -> dict:
    """a + bx + monomials allowed by conditions (i)-(v); with `violate`,
    plus one forbidden monomial of weight 3..L."""
    terms = {mono(a=1): Fraction(1), mono(b=1, x=1): Fraction(1)}
    allowed, forbidden = [], []
    for e in monomials(C.REGULAR_W, 3, L):
        j, l = e[C.IB], e[C.IX]
        ok = j >= 2 and l >= 2 and (j, l) not in C.EXCLUDED_BIDEGREES
        (allowed if ok else forbidden).append(e)
    for e in allowed:
        if rng.random() < 0.5:
            terms[e] = coef(rng)
    if violate:
        terms[rng.choice(forbidden)] = coef(rng)
    return terms


def gen_ode_normal(rng: random.Random, order: int = ODE_ORDER) -> dict:
    """B supported on the families a normal ODE may carry."""
    terms = {}
    for e, c in gen_ode(rng, order, 0.5).items():
        i, j = e[C.IX], e[C.IP]
        if j >= 4 or (i >= 2 and j >= 2):
            terms[e] = c
    return terms


def to_expr(terms: dict) -> str:
    """CLI text for a term dict, e.g. '-3/2 a^2 b + x^3'."""
    parts = []
    for e, c in sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        factors = [v if k == 1 else f"{v}^{k}" for v, k in zip(C.VARS, e) if k]
        mag = abs(c)
        body = " ".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[1:]


# ---------------------------------------------------------------------------
# helpers on outputs
# ---------------------------------------------------------------------------


def map_jets(pmap) -> dict:
    return {"X": C.from_poly(pmap.Xc), "Y": C.from_poly(pmap.Yc),
            "A": C.from_poly(pmap.Ac), "B": C.from_poly(pmap.Bc)}


def map_shape_errors(maps: dict, L: int, w: tuple, what: str) -> list:
    errs = []
    for name, variables in (("X", "xy"), ("Y", "xy"), ("A", "ab"), ("B", "ab")):
        errs += C.shape_errors(maps[name], L, w, variables, f"{what} {name}")
    return errs


def regular_result_errors(src: Jet, normal: Jet, maps: dict, rng, what: str) -> list:
    L = src.order
    errs = C.shape_errors(normal, L, C.REGULAR_W, "abx", f"{what} normal form")
    errs += map_shape_errors(maps, L, C.REGULAR_W, f"{what} transform")
    errs += C.regular_normal_errors(normal, what)
    if not errs:
        errs += C.identity_errors(src, normal, maps["X"], maps["Y"], maps["A"],
                                  maps["B"], L, rng, what)
    return errs


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """make_round(rng) -> specs; prepare(spec) -> args; call(args) is the
    timed program call; failure(raw) says why a returned call failed;
    extract(spec, raw) -> plain output; check(spec, out, rng) -> errors;
    corrupt_keys(out) names the jets the self-test corrupts (changed
    coefficient, dropped term, lowered order), or None."""

    name = ""

    def __init__(self, mods):
        self.m = mods

    def failure(self, raw) -> str | None:
        """Why a returned call failed, or None."""
        return None

    def label(self, spec) -> str:
        return self.name

    def corrupt_keys(self, out: dict):
        return None


class Regular(Workload):
    name = "regular"

    def make_round(self, rng):
        return [{"F": gen_regular(rng)}]

    def prepare(self, spec):
        m = self.m
        return m.surfaces.SurfaceJet(m.poly.Poly(spec["F"], m.poly.REGULAR,
                                                 REGULAR_ORDER))

    def call(self, surface):
        m = self.m
        reduced, pre = m.surfaces.preliminary_reduce(surface)
        rep = m.regnorm.normalize_jet(reduced)
        return rep, rep.transform.compose(pre)

    def extract(self, spec, raw):
        rep, transform = raw
        return {"normal": C.from_poly(rep.normalized.F), **map_jets(transform),
                "conditions_ok": rep.conditions_ok}

    def check(self, spec, out, rng):
        src = Jet(REGULAR_ORDER, C.REGULAR_W, spec["F"])
        errs = regular_result_errors(src, out["normal"], out, rng, "regular")
        if not out["conditions_ok"]:
            errs.append("regular: report conditions not all true")
        return errs

    def corrupt_keys(self, out):
        return "normal", "Y", "normal"


class Singular(Workload):
    name = "singular"

    def make_round(self, rng):
        """Every (k, m) once as a raw jet, and PATTERN_PER_ROUND on-pattern
        jets of distinct random types on top, so that every round does the
        same raw work."""
        kinds = [(k, m, False) for k, m in SINGULAR_TYPES]
        kinds += [(k, m, True) for k, m in rng.sample(SINGULAR_TYPES, PATTERN_PER_ROUND)]
        rng.shuffle(kinds)
        specs = []
        for k, m, pattern in kinds:
            if pattern:
                specs.append({"k": k, "m": m, "F": gen_pattern(rng, k, m, k + 6),
                              "gammas": (Fraction(0),) * (k - m - 1),
                              "pattern": True})
            else:
                terms, gammas = gen_singular(rng, k, m)
                specs.append({"k": k, "m": m, "F": terms, "gammas": gammas,
                              "pattern": False})
        return specs

    def label(self, spec) -> str:
        return f"k={spec['k']} m={spec['m']}" + (" pattern" if spec["pattern"] else "")

    def prepare(self, spec):
        m = self.m
        return m.surfaces.SurfaceJet(m.poly.Poly(spec["F"], m.poly.UNIT,
                                                 spec["k"] + 6))

    def call(self, surface):
        m = self.m
        reduced, pre, t = m.singnorm.prelim_reduce_singular(surface)
        rep = m.singnorm.normalize_singular_jet(reduced, t)
        iso = m.autodetect.isotropy_report(rep.normalized, t)
        return reduced, t, rep, iso

    def extract(self, spec, raw):
        reduced, t, rep, iso = raw
        return {"reduced": C.from_poly(reduced.F),
                "normal": C.from_poly(rep.normalized.F),
                **map_jets(rep.transform),
                "type": (t.k, t.m, t.n, tuple(Fraction(g) for g in t.gammas)),
                "ok": rep.ok, "verdict": iso.verdict, "iso_mn": (iso.m, iso.n)}

    def check(self, spec, out, rng):
        k, m = spec["k"], spec["m"]
        n, L, w = k - m, k + 6, C.singular_w(k)
        what = f"singular k={k} m={m}"
        errs = []
        if out["type"] != (k, m, n, spec["gammas"]):
            errs.append(f"{what}: type {out['type']}, expected "
                        f"{(k, m, n, spec['gammas'])}")
        red, normal = out["reduced"], out["normal"]
        errs += C.shape_errors(red, L, w, "abx", f"{what} reduced")
        errs += C.shape_errors(normal, L, w, "abx", f"{what} normal form")
        errs += map_shape_errors(out, L, w, f"{what} transform")
        errs += C.reduced_type_errors(red, k, m, spec["gammas"], what)
        errs += C.singular_normal_errors(normal, k, m, spec["gammas"], what)
        if not out["ok"]:
            errs.append(f"{what}: report not ok")
        if out["iso_mn"] != (m, n):
            errs.append(f"{what}: isotropy (m, n) = {out['iso_mn']}")
        errs += C.verdict_errors(normal, out["verdict"], m, n, what)
        if not errs:
            errs += C.identity_errors(red, normal, out["X"], out["Y"], out["A"],
                                      out["B"], L, rng, what)
        return errs

    def corrupt_keys(self, out):
        return "normal", "Y", "normal"


class Ode(Workload):
    name = "ode"

    def make_round(self, rng):
        return [{"B": gen_ode(rng)}]

    def prepare(self, spec):
        m = self.m
        return m.odebridge.OdeJet(m.poly.Poly(spec["B"], m.poly.UNIT, ODE_ORDER))

    def call(self, ode):
        ob = self.m.odebridge
        surface = ob.ode_to_surface(ode)
        back, data = ob.surface_to_ode(surface)
        again = ob.ode_to_surface(back, surface.order)
        return surface, back, data, again

    def extract(self, spec, raw):
        surface, back, data, again = raw
        return {"F": C.from_poly(surface.F), "back": C.from_poly(back.B),
                "a": C.from_poly(data.a_series), "b": C.from_poly(data.b_series),
                "again": C.from_poly(again.F)}

    def check(self, spec, out, rng):
        B = Jet(ODE_ORDER, C.UNIT_W, spec["B"])
        F = out["F"]
        errs = C.shape_errors(F, ODE_ORDER + 2, C.UNIT_W, "abx", "ode surface")
        errs += C.ode_solution_errors(F, B, rng, "ode surface")
        errs += C.exact_equal_errors(out["back"], B, "ode round trip B")
        errs += C.exact_equal_errors(out["again"], F, "ode round trip F")
        errs += C.elimination_errors(F, out["a"], out["b"], rng, "ode")
        return errs

    def corrupt_keys(self, out):
        return "F", "back", "F"


class Cli(Workload):
    """In-process `paracr.cli.main(argv)`, stdout and stderr captured."""

    name = "cli"

    def make_round(self, rng):
        specs = [{"kind": "tables", "ell": ell,
                  "argv": ["tables", "--ell", str(ell), "--json"]}
                 for ell in range(9)]

        def surface_cmd(kind, terms, order, extra=(), **data):
            return {"kind": kind, "terms": terms, "order": order, **data,
                    "argv": [kind.split(":")[0], *extra, "--order", str(order),
                             "--expr", to_expr(terms), "--json"]}

        for _ in range(2):
            specs.append(surface_cmd("normalize", gen_regular(rng), REGULAR_ORDER))
        specs.append(surface_cmd("normalize:geometric", gen_regular(rng),
                                 REGULAR_ORDER, ("--geometric",)))
        kinds = rng.sample(SINGULAR_TYPES, 3)
        for k, m in kinds[:2]:
            terms, gammas = gen_singular(rng, k, m)
            specs.append(surface_cmd("normalize-singular", terms, k + 6,
                                     k=k, m=m, gammas=gammas))
        k, m = kinds[2]
        specs.append(surface_cmd("type", gen_singular(rng, k, m)[0], k + 6,
                                 k=k, m=m))
        specs.append(surface_cmd("type", gen_regular(rng), REGULAR_ORDER,
                                 k=2, m=1))
        specs.append(surface_cmd("ode2surf", gen_ode(rng), ODE_ORDER))
        specs.append(surface_cmd("surf2ode", gen_surface(rng), SURFACE_ORDER))
        specs.append({"kind": "surf2ode", "order": 8, "argv": FAILING_SURF2ODE,
                      "terms": {mono(a=1): Fraction(1), mono(b=1, x=1): Fraction(2),
                                mono(b=2, x=2): Fraction(1)}})
        for violate in (False, True):
            specs.append(surface_cmd("check-normal",
                                     gen_regular_normal(rng, violate=violate),
                                     REGULAR_ORDER))
        specs.append(surface_cmd("check-ode-normal", gen_ode_normal(rng), ODE_ORDER))
        specs.append(surface_cmd("check-ode-normal", gen_ode(rng), ODE_ORDER))
        for verdict in ("MODEL", "ONE_PARAMETER", "TRIVIAL"):
            k, m = rng.choice(SINGULAR_TYPES)
            L = 3 * k
            terms = gen_pattern(rng, k, m, L)
            if verdict == "MODEL":
                terms = {e: c for e, c in terms.items() if sum(e) <= k}
            elif verdict == "TRIVIAL":
                off = rng.choice([e for e in monomials(C.singular_w(k), k + 1, L)
                                  if e[C.IB] and e[C.IX]
                                  and m * e[C.IX] != (k - m) * e[C.IB]])
                terms[off] = coef(rng)
            specs.append(surface_cmd("autos", terms, L, k=k, m=m))
        return specs

    def label(self, spec) -> str:
        return spec["kind"]

    def prepare(self, spec):
        return spec["argv"]

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.m.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def failure(self, raw) -> str | None:
        return f"exit {raw[0]}: {raw[2].strip()}" if raw[0] != 0 else None

    def extract(self, spec, raw):
        rep = json.loads(raw[1])
        kind, order = spec["kind"], spec.get("order")
        out = {"json": rep}
        if kind.startswith("normalize"):
            w = C.REGULAR_W if kind != "normalize-singular" else C.singular_w(spec["k"])
            out["normal"] = C.from_json_terms(rep["normalized"]["terms"], order, w)
            for name in "XYAB":
                out[name] = C.from_json_terms(rep["transform"][name]["terms"],
                                              order, w)
        elif kind == "ode2surf":
            out["F"] = C.from_json_terms(rep["surface"]["terms"], rep["order"],
                                         C.UNIT_W)
        elif kind == "surf2ode":
            out["B"] = C.from_json_terms(rep["B"]["terms"], rep["order"], C.UNIT_W)
        return out

    def check(self, spec, out, rng):
        kind, rep = spec["kind"], out["json"]
        what = f"cli {kind}"
        if kind == "tables":
            return C.tables_errors(spec["ell"], rep)
        terms, order = spec["terms"], spec["order"]
        if kind in ("normalize", "normalize:geometric"):
            src = Jet(order, C.REGULAR_W, terms)
            errs = regular_result_errors(src, out["normal"], out, rng, what)
            if not all(rep["conditions"].values()):
                errs.append(f"{what}: reported conditions not all true")
            return errs
        if kind == "normalize-singular":
            # the printed transform composes the unit-grading preliminary map
            # in the type-k grading, so its identity is not checked here
            k, m = spec["k"], spec["m"]
            t = rep["type"]
            gammas = tuple(Fraction(g) for g in t["gammas"])
            errs = []
            if (t["k"], t["m"], t["n"], gammas) != (k, m, k - m, spec["gammas"]):
                errs.append(f"{what}: type {t}, expected {(k, m, spec['gammas'])}")
            errs += C.singular_normal_errors(out["normal"], k, m, spec["gammas"], what)
            for e in out["normal"].terms:
                if C.weight(out["normal"].weights, e) > order:
                    errs.append(f"{what}: term {e} above the order")
            if rep["ok"] is not True:
                errs.append(f"{what}: not ok")
            return errs
        if kind == "type":
            k, m = spec["k"], spec["m"]
            want = {"verdict": "regular" if k == 2 else "singular",
                    "k": k, "m": m, "n": k - m}
            return [] if rep == want else [f"{what}: {rep}, expected {want}"]
        if kind == "ode2surf":
            B = Jet(order, C.UNIT_W, terms)
            errs = C.shape_errors(out["F"], order + 2, C.UNIT_W, "abx", what)
            return errs + C.ode_solution_errors(out["F"], B, rng, what)
        if kind == "surf2ode":
            F = Jet(order, C.UNIT_W, terms)
            errs = C.shape_errors(out["B"], order - 2, C.UNIT_W, "xyp", what)
            return errs + C.ode_solution_errors(F, out["B"], rng, what,
                                                initial=False)
        if kind == "check-normal":
            want = C.regular_conditions(Jet(order, C.REGULAR_W, terms))
            got = (rep["normal"], rep["conditions"])
            if got != (all(want.values()), want):
                return [f"{what}: {got}, expected {want}"]
            return []
        if kind == "check-ode-normal":
            want = C.ode_offenders(Jet(order, C.UNIT_W, terms))
            got = {tuple(o["family"]): C.from_json_terms(o["terms"], order,
                                                        C.UNIT_W).terms
                   for o in rep["offending"]}
            if got != want or rep["normal"] != (not want):
                return [f"{what}: offending families {sorted(got)}, "
                        f"expected {sorted(want)}"]
            return []
        if kind == "autos":
            k, m = spec["k"], spec["m"]
            F = Jet(order, C.singular_w(k), terms)
            errs = C.verdict_errors(F, rep["verdict"], m, k - m, what)
            if (rep["m"], rep["n"], rep["order"]) != (m, k - m, order):
                errs.append(f"{what}: (m, n, order) = "
                            f"{(rep['m'], rep['n'], rep['order'])}")
            want_fields = {"MODEL": {"chi", "chi0", "chik"},
                           "ONE_PARAMETER": {"chi"}}.get(rep["verdict"], set())
            if set(rep["fields"]) != want_fields:
                errs.append(f"{what}: fields {sorted(rep['fields'])}")
            for name, fj in rep["fields"].items():
                field = {c: C.from_json_terms(fj[c]["terms"], order, F.weights).terms
                         for c in ("eta", "alpha", "beta", "xi")}
                if C.tangency_residual(F, field):
                    errs.append(f"{what}: field {name} is not tangent")
            return errs
        return [f"{what}: no check for this kind"]

    def corrupt_keys(self, out):
        if "normal" in out:
            if "X" in out and out["normal"].weights == C.REGULAR_W:
                return "normal", "Y", "normal"
            return None
        for key in ("F", "B"):
            if key in out:
                return key, key, key
        return None


WORKLOADS = {w.name: w for w in (Regular, Singular, Ode, Cli)}


# ---------------------------------------------------------------------------
# self-test: corrupted outputs must be rejected
# ---------------------------------------------------------------------------


def _top(j: Jet):
    return max(j.terms, key=lambda e: (C.weight(j.weights, e), e))


def corruptions(out: dict, keys) -> list:
    """(label, corrupted copy) for a changed coefficient, a dropped term and
    a lowered order."""
    coef_key, drop_key, order_key = keys
    result = []
    j = out[coef_key]
    e = _top(j)
    terms = dict(j.terms)
    terms[e] = terms[e] + 1 if terms[e] != -1 else Fraction(2)
    result.append((f"changed coefficient in {coef_key}",
                   {**out, coef_key: j._replace(terms=terms)}))
    j = out[drop_key]
    e = _top(j)
    result.append((f"dropped term of {drop_key}",
                   {**out, drop_key: j._replace(
                       terms={k: v for k, v in j.terms.items() if k != e})}))
    j = out[order_key]
    result.append((f"lowered order of {order_key}",
                   {**out, order_key: j._replace(order=j.order - 1)}))
    return result
