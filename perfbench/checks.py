"""Output checks made apart from `paracr`.

Every value is held in a plain representation: a `Jet` of an order, the
variable weights and a dict from exponent tuples over (a, b, x, y, p) to
`Fraction`.  Nothing here calls `paracr.poly`; program outputs are read into
jets through their `terms`, `order` and `grading.weights` attributes, or from
the CLI's JSON.

Identities between truncated series, such as Y(x, F) = F*(A, B, X(x, F)),
are tested by graded evaluation: every variable v becomes c_v t^w(v) for a
random c_v modulo the prime 2^61 - 1, so each side becomes a polynomial in t
truncated at the order.  The coefficient of t^nu is the weight-nu part of the
identity evaluated at the point, so a wrong weight-nu part survives one point
with probability at most nu / (2^61 - 1) (Schwartz-Zippel).  Two points are
used.  Coefficient lists, supports and truncation orders are compared
exactly.  A substituted series must have t-order at least the weight of the
variable it replaces, or truncation is unsound; that is checked, not assumed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

VARS = ("a", "b", "x", "y", "p")
IA, IB, IX, IY, IP = range(5)
PRIME = (1 << 61) - 1
POINTS = 2

REGULAR_W = (2, 1, 1, 2, 1)
UNIT_W = (1, 1, 1, 1, 1)


def singular_w(k: int) -> tuple:
    return (k, 1, 1, k, 1)


class Jet(NamedTuple):
    order: int
    weights: tuple
    terms: dict  # exps (5-tuple) -> Fraction, no zero values


def weight(weights: tuple, exps: tuple) -> int:
    return sum(w * e for w, e in zip(weights, exps))


def mono(**kw) -> tuple:
    return tuple(kw.get(v, 0) for v in VARS)


def from_poly(p) -> Jet:
    """Read a program polynomial without using its arithmetic."""
    terms = {tuple(int(e) for e in exps): Fraction(int(c.numerator), int(c.denominator))
             for exps, c in p.terms.items()}
    return Jet(int(p.order), tuple(p.grading.weights), terms)


def from_json_terms(items: list, order: int, weights: tuple) -> Jet:
    """Read the CLI's [{"coef": "3/2", "exps": {"b": 2}}] term lists."""
    terms = {}
    for item in items:
        exps = tuple(int(item["exps"].get(v, 0)) for v in VARS)
        if exps in terms:
            raise CheckError(f"monomial {exps} listed twice")
        terms[exps] = Fraction(item["coef"])
    return Jet(order, weights, terms)


class CheckError(Exception):
    """A check could not be applied (malformed output)."""


# ---------------------------------------------------------------------------
# small exact helpers
# ---------------------------------------------------------------------------


def shape_errors(j: Jet, order: int, weights: tuple, variables: str,
                 what: str) -> list:
    """Order, grading, variables, nonzero coefficients and truncation."""
    errs = []
    if j.order != order:
        errs.append(f"{what}: order {j.order}, expected {order}")
    if tuple(j.weights) != tuple(weights):
        errs.append(f"{what}: weights {j.weights}, expected {weights}")
    allowed = {VARS.index(v) for v in variables}
    for exps, c in j.terms.items():
        if c == 0:
            errs.append(f"{what}: zero coefficient stored at {exps}")
        if any(e and i not in allowed for i, e in enumerate(exps)):
            errs.append(f"{what}: monomial {exps} uses a variable outside {variables}")
        if weight(weights, exps) > j.order:
            errs.append(f"{what}: monomial {exps} above the order {j.order}")
    return errs


def exact_equal_errors(got: Jet, want: Jet, what: str) -> list:
    errs = []
    if got.order != want.order:
        errs.append(f"{what}: order {got.order}, expected {want.order}")
    if tuple(got.weights) != tuple(want.weights):
        errs.append(f"{what}: weights differ")
    if got.terms != want.terms:
        diff = sorted(set(got.terms.items()) ^ set(want.terms.items()))
        errs.append(f"{what}: terms differ at {diff[:3]}")
    return errs


def dmul(p: dict, q: dict, keep=None) -> dict:
    """Exact product of two term dicts; `keep(exps)` filters the result."""
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            if keep is None or keep(e):
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dadd(*ps: dict) -> dict:
    out: dict = {}
    for p in ps:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def dscale(p: dict, c) -> dict:
    return {e: v * c for e, v in p.items() if v * c}


def dpartial(p: dict, i: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return out


def dsubst_y(p: dict, F: dict, keep=None) -> dict:
    """p(x, y -> F), exact, with `keep` applied to every partial product."""
    powers = [{mono(): Fraction(1)}]
    out: dict = {}
    for e, c in p.items():
        while len(powers) <= e[IY]:
            powers.append(dmul(powers[-1], F, keep))
        shift = e[:IY] + (0,) + e[IY + 1:]
        for pe, pc in powers[e[IY]].items():
            ne = tuple(i + j for i, j in zip(pe, shift))
            if keep is None or keep(ne):
                out[ne] = out.get(ne, 0) + c * pc
    return {e: c for e, c in out.items() if c}


def rank(rows: list) -> int:
    """Rank over Q of a list of equal-length Fraction rows."""
    m = [list(r) for r in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# graded evaluation modulo PRIME
# ---------------------------------------------------------------------------


def _modp(c: Fraction) -> int:
    if c.denominator % PRIME == 0:
        raise CheckError("coefficient denominator divisible by the check prime")
    return c.numerator * pow(c.denominator, -1, PRIME) % PRIME


def _smul(u: list, v: list, L: int) -> list:
    out = [0] * (L + 1)
    for i, ui in enumerate(u):
        if ui:
            for j in range(L + 1 - i):
                if v[j]:
                    out[i + j] += ui * v[j]
    return [c % PRIME for c in out]


def _tord(s: list) -> int:
    return next((i for i, c in enumerate(s) if c), len(s))


def random_point(weights: tuple, L: int, rng: random.Random) -> dict:
    """Series c_v t^w(v) for each variable, truncated at t^L."""
    subs = {}
    for i in range(5):
        s = [0] * (L + 1)
        if weights[i] <= L:
            s[weights[i]] = rng.randrange(1, PRIME)
        subs[i] = s
    return subs


def graded_eval(j: Jet, subs: dict, weights: tuple, L: int, what: str) -> list:
    """j with each variable i replaced by the series subs[i], truncated at
    t^L.  Every series must have t-order >= weights[i] for truncation to be
    sound."""
    used = {i for e in j.terms for i, v in enumerate(e) if v}
    for i in used:
        if _tord(subs[i]) < weights[i]:
            raise CheckError(f"{what}: substitution for {VARS[i]} breaks "
                             "the weight filtration")
    powers = {i: [[1] + [0] * L] for i in used}
    out = [0] * (L + 1)
    for e, c in j.terms.items():
        acc = [0] * (L + 1)
        acc[0] = _modp(c)
        for i, k in enumerate(e):
            if not k:
                continue
            pw = powers[i]
            while len(pw) <= k:
                pw.append(_smul(pw[-1], subs[i], L))
            acc = _smul(acc, pw[k], L)
        for d in range(L + 1):
            out[d] += acc[d]
    return [c % PRIME for c in out]


def identity_errors(src: Jet, dst: Jet, X: Jet, Y: Jet, A: Jet, B: Jet,
                    L: int, rng: random.Random, what: str) -> list:
    """Y(x, src) == dst(A(a, b), B(a, b), X(x, src)) through weight L, all in
    the grading `src.weights`."""
    w = src.weights
    for _ in range(POINTS):
        base = random_point(w, L, rng)
        on_surface = {**base, IY: graded_eval(src, base, w, L, f"{what} source jet")}
        lhs = graded_eval(Y, on_surface, w, L, f"{what} Y")
        image = {**base,
                 IA: graded_eval(A, base, w, L, f"{what} A"),
                 IB: graded_eval(B, base, w, L, f"{what} B"),
                 IX: graded_eval(X, on_surface, w, L, f"{what} X")}
        rhs = graded_eval(dst, image, w, L, f"{what} F*")
        bad = [d for d in range(L + 1) if lhs[d] != rhs[d]]
        if bad:
            return [f"{what}: Y(x, F) != F*(A, B, X(x, F)) at weight {bad[0]}"]
    return []


# ---------------------------------------------------------------------------
# normal form conditions, as the paper defines them
# ---------------------------------------------------------------------------

EXCLUDED_BIDEGREES = {(2, 2), (2, 3), (3, 2), (3, 3)}


def regular_conditions(F: Jet) -> dict:
    """Conditions (i)-(v) on f = F - a - bx."""
    f = dadd(F.terms, {mono(a=1): Fraction(-1), mono(b=1, x=1): Fraction(-1)})
    cond = {k: True for k in ("i", "ii", "iii", "iv", "v")}
    for e in f:
        j, l = e[IB], e[IX]
        if j < 1 or l < 1:
            cond["i"] = False
        if j < 2 or l < 2:
            cond["ii"] = False
        if (j, l) == (2, 2):
            cond["iii"] = False
        if (j, l) in ((2, 3), (3, 2)):
            cond["iv"] = False
        if (j, l) == (3, 3):
            cond["v"] = False
    return cond


def regular_normal_errors(F: Jet, what: str) -> list:
    bad = [k for k, ok in regular_conditions(F).items() if not ok]
    return [f"{what}: normal form conditions {bad} fail"] if bad else []


def singular_forbidden(exps: tuple, k: int, m: int, n: int) -> bool:
    """Is a^i b^j x^l (weight > k) excluded from the singular normal form?"""
    j, l = exps[IB], exps[IX]
    return (j == 0 or l == 0
            or (j == m and l >= n - 1)
            or (l == n and j >= m - 1)
            or (j, l) in ((2 * m, 2 * n), (3 * m, 3 * n))
            or (m == 1 and (j, l) == (1, 2 * n))
            or (n == 1 and (j, l) == (2 * m, 1)))


def bottom_row(k: int, m: int, gammas: tuple) -> dict:
    """a + b^m x^n + sum gamma_j b^j x^(k - j)."""
    row = {mono(a=1): Fraction(1), mono(b=m, x=k - m): Fraction(1)}
    for j, g in zip(range(m + 1, k), gammas):
        if g:
            row[mono(b=j, x=k - j)] = Fraction(g)
    return row


def singular_normal_errors(F: Jet, k: int, m: int, gammas: tuple,
                           what: str) -> list:
    n = k - m
    f = dadd(F.terms, dscale(bottom_row(k, m, gammas), -1))
    errs = []
    for e in f:
        if weight(F.weights, e) <= k:
            errs.append(f"{what}: term {e} of weight <= k outside the bottom row")
        elif singular_forbidden(e, k, m, n):
            errs.append(f"{what}: forbidden monomial {e}")
    return errs[:3]


def reduced_type_errors(F: Jet, k: int, m: int, gammas: tuple, what: str) -> list:
    """The reduced jet's weight <= k part is exactly the bottom row."""
    low = {e: c for e, c in F.terms.items() if weight(F.weights, e) <= k}
    if low != bottom_row(k, m, gammas):
        return [f"{what}: reduced bottom row {sorted(low.items())} is not "
                f"a + b^{m} x^{k - m} + gammas {gammas}"]
    return []


def rotation_tangent(F: Jet, m: int, n: int) -> bool:
    """n b d/db - m x d/dx is tangent to y = F exactly when every monomial
    a^i b^j x^l of F has m l = n j (its residual is sum (m l - n j) c)."""
    return all(m * e[IX] == n * e[IB] for e in F.terms)


def verdict_errors(F: Jet, verdict: str, m: int, n: int, what: str) -> list:
    errs = []
    model = {mono(a=1): Fraction(1), mono(b=m, x=n): Fraction(1)}
    is_model = F.terms == model
    if (verdict == "MODEL") != is_model:
        errs.append(f"{what}: verdict {verdict}, jet is model: {is_model}")
    tangent = rotation_tangent(F, m, n)
    if tangent != (verdict in ("MODEL", "ONE_PARAMETER")):
        errs.append(f"{what}: verdict {verdict}, rotation field tangent: {tangent}")
    return errs


def tangency_residual(F: Jet, field: dict) -> dict:
    """eta(x, F) - alpha F_a - beta F_b - xi(x, F) F_x truncated at F's
    weighted order, for a field {"eta", "alpha", "beta", "xi"} of term dicts."""
    w, L = F.weights, F.order

    def keep(e):
        return weight(w, e) <= L

    eta = dsubst_y(field["eta"], F.terms, keep)
    xi = dsubst_y(field["xi"], F.terms, keep)
    res = dadd(eta,
               dscale(dmul(field["alpha"], dpartial(F.terms, IA), keep), -1),
               dscale(dmul(field["beta"], dpartial(F.terms, IB), keep), -1),
               dscale(dmul(xi, dpartial(F.terms, IX), keep), -1))
    return res


# ---------------------------------------------------------------------------
# ODE side
# ---------------------------------------------------------------------------


def ode_solution_errors(F: Jet, B: Jet, rng: random.Random, what: str,
                        initial: bool = True) -> list:
    """F_xx = B(x, F, F_x) through total degree F.order - 2, and with
    `initial` the initial conditions F(a, b, 0) = a, F_x(a, b, 0) = b."""
    errs = []
    L = F.order - 2
    if initial:
        x0 = {e: c for e, c in F.terms.items() if e[IX] == 0}
        x1 = {e: c for e, c in F.terms.items() if e[IX] == 1}
        if x0 != {mono(a=1): 1}:
            errs.append(f"{what}: F(a, b, 0) != a")
        if x1 != {mono(b=1, x=1): 1}:
            errs.append(f"{what}: F_x(a, b, 0) != b")
    w = UNIT_W
    Fx = Jet(F.order - 1, w, dpartial(F.terms, IX))
    Fxx = Jet(F.order - 2, w, dpartial(Fx.terms, IX))
    Bl = Jet(L, w, {e: c for e, c in B.terms.items() if sum(e) <= L})
    for _ in range(POINTS):
        base = random_point(w, L, rng)
        lhs = graded_eval(Fxx, base, w, L, f"{what} F_xx")
        sub = {**base, IY: graded_eval(F, base, w, L, f"{what} F"),
               IP: graded_eval(Fx, base, w, L, f"{what} F_x")}
        rhs = graded_eval(Bl, sub, w, L, f"{what} B")
        bad = [d for d in range(L + 1) if lhs[d] != rhs[d]]
        if bad:
            errs.append(f"{what}: F_xx != B(x, F, F_x) at degree {bad[0]}")
            break
    return errs


def elimination_errors(F: Jet, aS: Jet, bS: Jet, rng: random.Random,
                       what: str) -> list:
    """y = F(a(x, y, p), b(x, y, p), x) through degree L and
    p = F_x(a, b, x) through degree L - 1, L being F's order."""
    L, w = F.order, UNIT_W
    errs = []
    for j in (aS, bS):
        errs += shape_errors(j, L, w, "xyp", f"{what} elimination series")
    if errs:
        return errs
    Fx = Jet(L - 1, w, dpartial(F.terms, IX))
    for _ in range(POINTS):
        base = random_point(w, L, rng)
        sub = {**base, IA: graded_eval(aS, base, w, L, f"{what} a"),
               IB: graded_eval(bS, base, w, L, f"{what} b")}
        y = graded_eval(F, sub, w, L, f"{what} F")
        p = graded_eval(Fx, sub, w, L, f"{what} F_x")
        if y != base[IY] or p[:L] != base[IP][:L]:
            return [f"{what}: the elimination series do not invert y = F, p = F_x"]
    return []


def ode_offenders(B: Jet) -> dict:
    """Coefficient families (i, j) of x^i p^j that a normal ODE must not
    carry: j <= 1, and the corners (0,2), (0,3), (1,2), (1,3)."""
    out: dict = {}
    for e, c in B.terms.items():
        i, j = e[IX], e[IP]
        if j <= 1 or (i, j) in ((0, 2), (0, 3), (1, 2), (1, 3)):
            out.setdefault((i, j), {})[e] = c
    return out


# ---------------------------------------------------------------------------
# operator tables
# ---------------------------------------------------------------------------

KERNEL_DIMS = {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}


def count_weighted(w: int, weights: tuple) -> int:
    """Number of monomials of weighted degree w in variables of the given
    weights."""
    if w < 0:
        return 0
    ways = [1] + [0] * w
    for wt in weights:
        for d in range(wt, w + 1):
            ways[d] += ways[d - wt]
    return ways[w]


def parse_monomial(text: str) -> tuple:
    exps = [0] * 5
    if text.strip() == "1":
        return tuple(exps)
    for factor in text.split():
        v, _, e = factor.partition("^")
        exps[VARS.index(v)] += int(e) if e else 1
    return tuple(exps)


def tables_errors(ell: int, rep: dict) -> list:
    """Dimensions from the paper's counts; each kernel field annihilated by
    T(V) = eta(x, a + bx) - alpha - x beta - b xi(x, a + bx); image plus
    complement equal to the codomain; complement monomials admissible."""
    errs = []
    domain = 2 * count_weighted(ell, (1, 2)) + 2 * count_weighted(ell - 1, (1, 2))
    codomain = count_weighted(ell, (2, 1, 1))
    kernel = KERNEL_DIMS.get(ell, 0)
    got = (rep["ell"], rep["domainDim"], rep["kernelDim"], rep["imageDim"])
    if got != (ell, domain, kernel, domain - kernel):
        errs.append(f"tables {ell}: (ell, domain, kernel, image) = {got}, "
                    f"expected {(ell, domain, kernel, domain - kernel)}")
    complement = [parse_monomial(t) for t in rep["complement"]]
    if rep["imageDim"] + len(complement) != codomain:
        errs.append(f"tables {ell}: image {rep['imageDim']} + complement "
                    f"{len(complement)} != codomain {codomain}")
    for e in complement:
        if (weight(REGULAR_W, e) != ell or e[IB] < 2 or e[IX] < 2
                or (e[IB], e[IX]) in EXCLUDED_BIDEGREES):
            errs.append(f"tables {ell}: complement monomial {e} not admissible")
    surface = {mono(a=1): Fraction(1), mono(b=1, x=1): Fraction(1)}
    vectors = []
    for i, kv in enumerate(rep["kernel"]):
        field = {name: from_json_terms(kv[name]["terms"], ell + 1, REGULAR_W).terms
                 for name in ("eta", "alpha", "beta", "xi")}
        image = dadd(dsubst_y(field["eta"], surface),
                     dscale(field["alpha"], -1),
                     dscale(dmul({mono(x=1): 1}, field["beta"]), -1),
                     dscale(dmul({mono(b=1): 1}, dsubst_y(field["xi"], surface)), -1))
        if image:
            errs.append(f"tables {ell}: kernel[{i}] has T(V) != 0")
        vectors.append({(n, e): c for n, d in field.items() for e, c in d.items()})
    keys = sorted({key for v in vectors for key in v})
    if vectors and rank([[v.get(key, Fraction(0)) for key in keys]
                         for v in vectors]) != len(vectors):
        errs.append(f"tables {ell}: kernel vectors are dependent")
    return errs
