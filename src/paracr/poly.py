"""Sparse polynomials over Q with a weighted grading and a truncation order.

Every value in the package is built from these polynomials.  The variable
universe is fixed to (a, b, x, y, p); a polynomial stores only the exponent
tuples it actually uses.  Every coefficient is a `fractions.Fraction`, so
every operation in the package is exact.

Products and substitutions put each operand over one common denominator and
accumulate integer numerators; each output coefficient is formed once, as a
rational, from its numerator sum over the common denominator of the result.
A `Substitution` checks its series once and caches the integer products of
their powers across calls, for callers that substitute into many polys.
Every substitution keeps the weight filtration: a series of weighted order
below the weight of the variable it replaces raises SubstitutionError.

Truncation convention: a polynomial of order L keeps terms of weight <= L and
silently discards anything heavier.  Arithmetic is closed under this rule.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping

RAT = Fraction  # perfbench/run.py reports the coefficient type by this name
_SCALARS = (int, Fraction)

VARS = ("a", "b", "x", "y", "p")
VAR_INDEX = {v: i for i, v in enumerate(VARS)}

ZERO_EXPS = (0, 0, 0, 0, 0)


class GradingError(ValueError):
    """Raised when two polynomials with incompatible gradings are combined."""


class SubstitutionError(ValueError):
    """Raised when a substitution would break the weight filtration."""


class Grading:
    """Positive integer weights for the variables, plus the type parameter k.

    The regular grading is a,y -> 2 and b,x,p -> 1; the singular grading of
    type k replaces 2 by k.  The unit grading (all weights 1) is used where
    truncation is by total degree.
    """

    __slots__ = ("weights", "type_k", "_wcache")

    def __init__(self, weights: Mapping[str, int], type_k: int | None = None):
        self.weights = tuple(int(weights.get(v, 1)) for v in VARS)
        if any(w <= 0 for w in self.weights):
            raise ValueError("variable weights must be positive")
        self.type_k = type_k
        self._wcache: dict = {}

    def weight_of(self, var: str) -> int:
        return self.weights[VAR_INDEX[var]]

    def weight(self, exps: tuple) -> int:
        w = self._wcache.get(exps)
        if w is None:
            w = sum(e * wt for e, wt in zip(exps, self.weights))
            self._wcache[exps] = w
        return w

    def __eq__(self, other):
        return isinstance(other, Grading) and self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        pairs = ", ".join(f"{v}:{w}" for v, w in zip(VARS, self.weights))
        return f"Grading({pairs})"


REGULAR = Grading({"a": 2, "y": 2, "b": 1, "x": 1, "p": 1}, type_k=2)
UNIT = Grading({v: 1 for v in VARS})


def singular_grading(k: int) -> Grading:
    if k < 2:
        raise ValueError("type parameter k must be >= 2")
    return Grading({"a": k, "y": k, "b": 1, "x": 1, "p": 1}, type_k=k)


def _as_fraction(c):
    if type(c) is Fraction:
        return c
    if isinstance(c, (int, Fraction, str)):
        return Fraction(c)
    raise TypeError(f"not an exact coefficient: {c!r}")


def _integer_product(ints1: tuple, ints2: tuple, order: int) -> tuple:
    """Product of two integer forms (d, [(weight, exps, n)]) sorted by
    weight, truncated at `order`: (d1 * d2, {exps: nonzero numerator})."""
    (d1, items1), (d2, items2) = ints1, ints2
    acc: dict = {}
    if not items1 or not items2:
        return d1 * d2, acc
    w2_min = items2[0][0]
    for w1, e1, n1 in items1:
        if w1 + w2_min > order:
            break
        for w2, e2, n2 in items2:
            if w1 + w2 > order:
                break
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2],
                 e1[3] + e2[3], e1[4] + e2[4])
            acc[e] = acc.get(e, 0) + n1 * n2
    return d1 * d2, {e: n for e, n in acc.items() if n}


def mono_exps(**kw) -> tuple:
    """Exponent tuple for a monomial, e.g. mono_exps(b=2, x=2)."""
    exps = [0] * len(VARS)
    for v, e in kw.items():
        if v not in VAR_INDEX:
            raise ValueError(f"unknown variable {v!r}")
        if e < 0:
            raise ValueError("exponents must be non-negative")
        exps[VAR_INDEX[v]] = int(e)
    return tuple(exps)


def format_monomial(exps: tuple) -> str:
    parts = []
    for v, e in zip(VARS, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return " ".join(parts) if parts else "1"


class Poly:
    """Immutable sparse polynomial with grading and truncation order."""

    __slots__ = ("terms", "grading", "order")

    def __init__(self, terms: Mapping[tuple, Fraction], grading: Grading, order: int):
        clean = {}
        for exps, c in terms.items():
            c = _as_fraction(c)
            if c == 0:
                continue
            if grading.weight(exps) > order:
                continue
            clean[exps] = c
        self.terms = clean
        self.grading = grading
        self.order = order

    # ---- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, terms: dict, grading: Grading, order: int) -> "Poly":
        """Internal fast path: terms already coerced and within the order."""
        obj = object.__new__(cls)
        obj.terms = {e: c for e, c in terms.items() if c}
        obj.grading = grading
        obj.order = order
        return obj

    @classmethod
    def zero(cls, grading: Grading, order: int) -> "Poly":
        return cls({}, grading, order)

    @classmethod
    def const(cls, c, grading: Grading, order: int) -> "Poly":
        return cls({ZERO_EXPS: _as_fraction(c)}, grading, order)

    @classmethod
    def var(cls, name: str, grading: Grading, order: int) -> "Poly":
        return cls({mono_exps(**{name: 1}): Fraction(1)}, grading, order)

    @classmethod
    def monomial(cls, c, grading: Grading, order: int, **exps) -> "Poly":
        return cls({mono_exps(**exps): _as_fraction(c)}, grading, order)

    # ---- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps: tuple) -> Fraction:
        return self.terms.get(exps, Fraction(0))

    def coeff_mono(self, **exps) -> Fraction:
        return self.coeff(mono_exps(**exps))

    def constant_term(self) -> Fraction:
        return self.coeff(ZERO_EXPS)

    def variables(self) -> set:
        used = set()
        for exps in self.terms:
            for v, e in zip(VARS, exps):
                if e:
                    used.add(v)
        return used

    def min_weight(self) -> int | None:
        """Weighted order of the polynomial; None for the zero polynomial."""
        if not self.terms:
            return None
        return min(self.grading.weight(e) for e in self.terms)

    # ---- structural adjustments --------------------------------------

    def with_order(self, order: int) -> "Poly":
        """Re-truncate.  Raising the order is only sound when the polynomial
        is known exactly (a jet given as data, or an exact derivative)."""
        return Poly(self.terms, self.grading, order)

    def with_grading(self, grading: Grading, order: int | None = None) -> "Poly":
        return Poly(self.terms, grading, self.order if order is None else order)

    def _integer_items(self) -> tuple:
        """(d, [(weight, exps, n)]) with every coefficient equal to n / d for
        one common denominator d, sorted by increasing weight."""
        d = 1
        for c in self.terms.values():
            d = lcm(d, c.denominator)
        weight = self.grading.weight
        return d, sorted((weight(e), e, c.numerator * (d // c.denominator))
                         for e, c in self.terms.items())

    # ---- ring operations ----------------------------------------------

    def _check(self, other: "Poly"):
        if self.grading != other.grading:
            raise GradingError(f"grading mismatch: {self.grading} vs {other.grading}")

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = Poly.const(other, self.grading, self.order)
        self._check(other)
        order = min(self.order, other.order)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0) + c
        if order < self.order or order < other.order:
            weight = self.grading.weight
            terms = {e: c for e, c in terms.items() if weight(e) <= order}
        return Poly._raw(terms, self.grading, order)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw({e: -c for e, c in self.terms.items()},
                         self.grading, self.order)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = Poly.const(other, self.grading, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = _as_fraction(other)
            return Poly._raw({e: c * v for e, v in self.terms.items()},
                             self.grading, self.order)
        self._check(other)
        order = min(self.order, other.order)
        g = self.grading
        d, acc = _integer_product(self._integer_items(), other._integer_items(),
                                  order)
        return Poly._raw({e: Fraction(n, d) for e, n in acc.items()}, g, order)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly.const(1, self.grading, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, _SCALARS):
                return self.terms == Poly.const(other, self.grading, self.order).terms
            return NotImplemented
        return self.grading == other.grading and self.terms == other.terms

    def __hash__(self):
        return hash((self.grading, frozenset(self.terms.items())))

    # ---- calculus -----------------------------------------------------

    def partial(self, var: str, n: int = 1) -> "Poly":
        """Iterated formal derivative.  The truncation order drops by
        n * weight(var): weight-L input terms only pin the derivative down to
        weight L - n*w."""
        i = VAR_INDEX[var]
        w = self.grading.weights[i]
        terms = self.terms
        for _ in range(n):
            new = {}
            for exps, c in terms.items():
                e = exps[i]
                if e == 0:
                    continue
                ne = exps[:i] + (e - 1,) + exps[i + 1:]
                new[ne] = new.get(ne, 0) + c * e
            terms = new
        return Poly._raw(dict(terms), self.grading, self.order - n * w)

    def integrate(self, var: str) -> "Poly":
        i = VAR_INDEX[var]
        w = self.grading.weights[i]
        new = {}
        for exps, c in self.terms.items():
            e = exps[i]
            ne = exps[:i] + (e + 1,) + exps[i + 1:]
            new[ne] = c / (e + 1)
        return Poly(new, self.grading, self.order + w)

    # ---- grading structure --------------------------------------------

    def weighted_components(self) -> list:
        """Decomposition into homogeneous parts, increasing weight."""
        buckets: dict = {}
        for exps, c in self.terms.items():
            buckets.setdefault(self.grading.weight(exps), {})[exps] = c
        return [(w, Poly(buckets[w], self.grading, self.order)) for w in sorted(buckets)]

    def component(self, weight: int) -> "Poly":
        g = self.grading
        return Poly({e: c for e, c in self.terms.items() if g.weight(e) == weight},
                    g, self.order)

    def up_to_weight(self, weight: int) -> "Poly":
        g = self.grading
        return Poly({e: c for e, c in self.terms.items() if g.weight(e) <= weight},
                    g, self.order)

    def coeff_series(self, **fixed) -> "Poly":
        """Coefficient of a monomial in some of the variables, as a polynomial
        in the remaining ones.  coeff_series(b=2, x=2) on f returns the series
        g(a, ...) with f = ... + g * b^2 x^2 + (other b,x powers)."""
        idx = {VAR_INDEX[v]: e for v, e in fixed.items()}
        new = {}
        for exps, c in self.terms.items():
            if all(exps[i] == e for i, e in idx.items()):
                ne = tuple(0 if i in idx else e for i, e in enumerate(exps))
                new[ne] = c
        return Poly(new, self.grading, self.order)

    def set_zero(self, *vars_: str) -> "Poly":
        """Substitute 0 for the named variables."""
        idx = [VAR_INDEX[v] for v in vars_]
        new = {}
        for exps, c in self.terms.items():
            if all(exps[i] == 0 for i in idx):
                new[exps] = new.get(exps, Fraction(0)) + c
        return Poly(new, self.grading, self.order)

    # ---- substitution -------------------------------------------------

    def substitute(self, subs: Mapping[str, "Poly"]) -> "Poly":
        """Formal composition, truncated; see `Substitution`."""
        return Substitution(subs, self.grading, self.order)(self)

    # ---- printing ------------------------------------------------------

    def sorted_terms(self) -> list:
        """Canonical term order: increasing weight; within a weight, higher
        powers of earlier variables (a before b before x) come first."""
        g = self.grading
        return sorted(self.terms.items(),
                      key=lambda kv: (g.weight(kv[0]),
                                      tuple(-e for e in kv[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = format_monomial(exps)
            if mono == "1":
                body = str(c)
            elif c == 1:
                body = mono
            elif c == -1:
                body = f"-{mono}"
            else:
                body = f"{c} {mono}"
            parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __repr__(self):
        return f"Poly({self}, order={self.order})"


class Substitution:
    """Formal composition p -> p(subs), truncated at the least of `order` and
    the orders of the series; reusable, with the products of the series'
    powers cached across calls.  Each series must have weighted order >= the
    weight of the variable it replaces, or truncation is not sound and
    SubstitutionError is raised; a caller whose map lowers weights composes
    in a grading where it does not.  On a Poly of at most the order, a call
    returns exactly `poly.substitute(subs)`."""

    __slots__ = ("grading", "order", "positions", "factors", "gaps", "_products")

    def __init__(self, subs: Mapping[str, Poly], grading: Grading, order: int):
        g = grading
        for v, s in subs.items():
            if s.grading != g:
                raise GradingError("substituted series has a different grading")
            order = min(order, s.order)
            mw = s.min_weight()
            if mw is not None and mw < g.weight_of(v):
                raise SubstitutionError(
                    f"substitution for {v} has weight {mw} < {g.weight_of(v)}")
        sub_idx = sorted((VAR_INDEX[v], s.with_order(order))
                         for v, s in subs.items())
        self.grading, self.order = g, order
        self.positions = tuple(i for i, _ in sub_idx)
        self.factors = [s._integer_items() for _, s in sub_idx]
        # every term of a substituted series weighs at least its min weight,
        # so a term whose lightest possible image is above the order is
        # skipped; a zero series annihilates every term that uses it
        self.gaps = tuple(order + 1 if s.is_zero() else s.min_weight() - g.weights[i]
                          for i, s in sub_idx)
        self._products = {(0,) * len(sub_idx): (1, [(0, ZERO_EXPS, 1)])}

    def product(self, key: tuple) -> tuple:
        """Integer form (d, [(weight, exps, n)]), sorted by weight, of the
        product of the series to the powers `key`, truncated at the order."""
        p = self._products.get(key)
        if p is None:
            # shared prefixes hit the cache
            pos = max(j for j, e in enumerate(key) if e)
            prev = key[:pos] + (key[pos] - 1,) + key[pos + 1:]
            d, acc = _integer_product(self.product(prev), self.factors[pos],
                                      self.order)
            weight = self.grading.weight
            p = d, sorted((weight(e), e, n) for e, n in acc.items())
            self._products[key] = p
        return p

    def __call__(self, poly: Poly) -> Poly:
        g = self.grading
        if poly.grading != g:
            raise GradingError("substituted series has a different grading")
        order = min(self.order, poly.order)
        weight = g.weight
        positions, gaps, products = self.positions, self.gaps, self._products
        live = []
        for exps, c in poly.terms.items():
            key = tuple(exps[i] for i in positions)
            low = weight(exps)
            for e, gap in zip(key, gaps):
                if e:
                    low += e * gap
            if low > order:
                continue
            shift = tuple(0 if i in positions else e
                          for i, e in enumerate(exps))
            p = products.get(key)
            live.append((shift, c, p if p is not None else self.product(key)))
        # accumulate integer numerators over one common denominator, as in
        # Poly.__mul__; product terms come sorted by weight
        den = lcm(*(c.denominator * d for _, c, (d, _) in live))
        out: dict = {}
        for shift, c, (d, items) in live:
            scale = c.numerator * (den // (c.denominator * d))
            room = order - weight(shift)
            for w, pe, n in items:
                if w > room:
                    break
                ne = (pe[0] + shift[0], pe[1] + shift[1], pe[2] + shift[2],
                      pe[3] + shift[3], pe[4] + shift[4])
                out[ne] = out.get(ne, 0) + scale * n
        return Poly._raw({e: Fraction(n, den) for e, n in out.items() if n}, g, order)
