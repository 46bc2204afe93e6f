"""Sparse polynomials over Q with a weighted grading and a truncation order.

Every value in the package is built from these polynomials.  The variable
universe is fixed to (a, b, x, y, p); a polynomial stores only the monomials
it actually uses, and every operation is exact.

Stored form, private to this module: integer numerators over one common
denominator, `(d, {key: n})`, in the manner of FLINT's fmpq_poly, kept
canonical: d > 0, gcd(d, every n) = 1 and no n is zero, so equal
polynomials store equal forms.  A key packs a monomial into one int
(Monagan and Pearce, CASC 2007): its weight in the top field, then the
exponents of a, b, x, y, p in fields of `_FIELD` bits.  A monomial product
is one integer addition, a truncation at order L is the comparison
key < (L + 1) << `_WSHIFT`, and sorting keys sorts by weight.

Why no field overflows: an order is at most MAX_ORDER, half a field's range,
and a stored exponent is at most its monomial's weight, hence at most the
order.  A sum of two stored keys thus has every exponent below the field's
range, and a sum over the order is dropped by its weight field before it is
added to anything else.  A Poly of order above MAX_ORDER raises ValueError.

`terms` is a read-only `{exponent tuple: Fraction}` view, built on first use.
A `Substitution` checks its series once and caches the integer products of
their powers across calls, for callers that substitute into many polys.
Every substitution keeps the weight filtration: a series of weighted order
below the weight of the variable it replaces raises SubstitutionError.

Truncation convention: a polynomial of order L keeps terms of weight <= L and
silently discards anything heavier.  Arithmetic is closed under this rule.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm
from types import MappingProxyType
from typing import Mapping

RAT = Fraction  # perfbench/run.py reports the coefficient type by this name
_SCALARS = (int, Fraction)

VARS = ("a", "b", "x", "y", "p")
VAR_INDEX = {v: i for i, v in enumerate(VARS)}

ZERO_EXPS = (0, 0, 0, 0, 0)

_FIELD = 8
_FMASK = (1 << _FIELD) - 1
_SHIFTS = tuple(_FIELD * (len(VARS) - 1 - i) for i in range(len(VARS)))
_WSHIFT = _FIELD * len(VARS)
_LOW = (1 << _WSHIFT) - 1
MAX_ORDER = (1 << (_FIELD - 1)) - 1


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

    __slots__ = ("weights", "type_k", "_wcache", "_keys")

    def __init__(self, weights: Mapping[str, int], type_k: int | None = None):
        self.weights = tuple(int(weights.get(v, 1)) for v in VARS)
        if any(w <= 0 for w in self.weights):
            raise ValueError("variable weights must be positive")
        self.type_k = type_k
        self._wcache: dict = {}
        self._keys: dict = {}

    def weight_of(self, var: str) -> int:
        return self.weights[VAR_INDEX[var]]

    def weight(self, exps: tuple) -> int:
        w = self._wcache.get(exps)
        if w is None:
            w = sum(e * wt for e, wt in zip(exps, self.weights))
            self._wcache[exps] = w
        return w

    def _key(self, exps: tuple) -> int:
        """The packed key of an exponent tuple in this grading."""
        k = self._keys.get(exps)
        if k is None:
            if len(exps) != len(VARS) or not all(0 <= e <= MAX_ORDER for e in exps):
                raise ValueError(f"exponents {exps!r} are not {len(VARS)} "
                                 f"integers from 0 to MAX_ORDER = {MAX_ORDER}")
            k = sum(e << s for e, s in zip(exps, _SHIFTS)) + \
                (self.weight(exps) << _WSHIFT)
            self._keys[exps] = k
        return k

    def __eq__(self, other):
        return isinstance(other, Grading) and self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        pairs = ", ".join(f"{v}:{w}" for v, w in zip(VARS, self.weights))
        return f"Grading({pairs})"


@lru_cache(maxsize=None)
def singular_grading(k: int) -> Grading:
    """The type-k grading, one instance (and weight cache) per k."""
    if k < 2:
        raise ValueError("type parameter k must be >= 2")
    return Grading({"a": k, "y": k, "b": 1, "x": 1, "p": 1}, type_k=k)


REGULAR = singular_grading(2)
UNIT = Grading({v: 1 for v in VARS})


def _as_fraction(c):
    if type(c) is Fraction:
        return c
    if isinstance(c, (int, Fraction, str)):
        return Fraction(c)
    raise TypeError(f"not an exact coefficient: {c!r}")


def _exps(key: int) -> tuple:
    """The exponent tuple of a packed key."""
    return tuple((key >> s) & _FMASK for s in _SHIFTS)


def _mask(variables) -> int:
    """The fields of the named variables."""
    return sum(_FMASK << _SHIFTS[VAR_INDEX[v]] for v in variables)


def _mul_items(items1: list, items2: list, limit: int) -> dict:
    """{key: numerator sum} of the product of two lists of (key, n) sorted
    by key, keeping keys below `limit`; a sum may be zero."""
    acc: dict = {}
    if not items1 or not items2:
        return acc
    get = acc.get
    low2 = items2[0][0]
    for k1, n1 in items1:
        if k1 + low2 >= limit:
            break
        for k2, n2 in items2:
            k = k1 + k2
            if k >= limit:
                break
            acc[k] = get(k, 0) + n1 * n2
    return acc


def _check_order(order: int):
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds MAX_ORDER = {MAX_ORDER}, the "
                         "largest order whose exponents fit a packed monomial")


def _new(grading: Grading, order: int, den: int, nums: dict) -> "Poly":
    """A Poly from a canonical stored form."""
    _check_order(order)
    obj = object.__new__(Poly)
    obj.grading, obj.order, obj._den, obj._nums, obj._view = \
        grading, order, den, nums, None
    return obj


def _make(grading: Grading, order: int, den: int, nums: dict) -> "Poly":
    """A Poly from numerators over den > 0, none zero, put in lowest terms."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: n // g for k, n in nums.items()}
    return _new(grading, order, den, nums)


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

    __slots__ = ("grading", "order", "_den", "_nums", "_view")

    def __init__(self, terms: Mapping[tuple, Fraction], grading: Grading, order: int):
        _check_order(order)
        weight, key = grading.weight, grading._key
        coefs = {}
        for exps, c in terms.items():
            c = _as_fraction(c)
            if c and weight(exps) <= order:
                coefs[key(exps)] = c
        # reduced fractions over the lcm of their denominators are in lowest
        # terms
        den = lcm(*(c.denominator for c in coefs.values()))
        nums = {k: c.numerator * (den // c.denominator) for k, c in coefs.items()}
        self.grading, self.order, self._den, self._nums, self._view = \
            grading, order, den, nums, None

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, grading: Grading, order: int) -> "Poly":
        return _new(grading, order, 1, {})

    @classmethod
    def const(cls, c, grading: Grading, order: int) -> "Poly":
        return cls({ZERO_EXPS: _as_fraction(c)}, grading, order)

    @classmethod
    def var(cls, name: str, grading: Grading, order: int) -> "Poly":
        return cls({mono_exps(**{name: 1}): 1}, grading, order)

    @classmethod
    def monomial(cls, c, grading: Grading, order: int, **exps) -> "Poly":
        return cls({mono_exps(**exps): _as_fraction(c)}, grading, order)

    # ---- basic queries ------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """Read-only {exponent tuple: Fraction} view, built on first use."""
        view = self._view
        if view is None:
            den = self._den
            view = self._view = MappingProxyType(
                {_exps(k): Fraction(n, den) for k, n in self._nums.items()})
        return view

    def is_zero(self) -> bool:
        return not self._nums

    def coeff(self, exps: tuple) -> Fraction:
        if self.grading.weight(exps) > self.order:
            return Fraction(0)
        return Fraction(self._nums.get(self.grading._key(exps), 0), self._den)

    def coeff_mono(self, **exps) -> Fraction:
        return self.coeff(mono_exps(**exps))

    def constant_term(self) -> Fraction:
        return Fraction(self._nums.get(0, 0), self._den)

    def variables(self) -> set:
        used = 0
        for k in self._nums:
            used |= k
        return {v for v, s in zip(VARS, _SHIFTS) if (used >> s) & _FMASK}

    def min_weight(self) -> int | None:
        """Weighted order of the polynomial; None for the zero polynomial."""
        return min(self._nums) >> _WSHIFT if self._nums else None

    # ---- structural adjustments --------------------------------------

    def with_order(self, order: int) -> "Poly":
        """Re-truncate.  Raising the order is only sound when the polynomial
        is known exactly (a jet given as data, or an exact derivative)."""
        if order >= self.order:
            return _new(self.grading, order, self._den, self._nums)
        limit = (order + 1) << _WSHIFT
        return _make(self.grading, order, self._den,
                     {k: n for k, n in self._nums.items() if k < limit})

    def with_grading(self, grading: Grading, order: int | None = None) -> "Poly":
        order = self.order if order is None else order
        if grading == self.grading:
            return self.with_order(order)
        weight, key = grading.weight, grading._key
        nums = {}
        for k, n in self._nums.items():
            exps = _exps(k)
            if weight(exps) <= order:
                nums[key(exps)] = n
        return _make(grading, order, self._den, nums)

    # ---- ring operations ----------------------------------------------

    def _operand(self, other) -> "Poly":
        if isinstance(other, _SCALARS):
            return Poly.const(other, self.grading, self.order)
        if self.grading is not other.grading and self.grading != other.grading:
            raise GradingError(f"grading mismatch: {self.grading} vs {other.grading}")
        return other

    def _add(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, at the smaller order."""
        order = min(self.order, other.order)
        d1, d2 = self._den, other._den
        den = d1 if d1 == d2 else lcm(d1, d2)
        s1, s2 = den // d1, sign * (den // d2)
        big, small = (self._nums, s1), (other._nums, s2)
        # add into a copy of the larger operand: one step per smaller term
        if len(big[0]) < len(small[0]):
            big, small = small, big
        nums, s = big
        out = dict(nums) if s == 1 else {k: n * s for k, n in nums.items()}
        get = out.get
        nums, s = small
        for k, n in nums.items():
            v = get(k, 0) + n * s
            if v:
                out[k] = v
            else:
                del out[k]
        if order < self.order or order < other.order:
            limit = (order + 1) << _WSHIFT
            out = {k: n for k, n in out.items() if k < limit}
        return _make(self.grading, order, den, out)

    def __add__(self, other):
        return self._add(self._operand(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(self._operand(other), -1)

    def __rsub__(self, other):
        return self._operand(other)._add(self, -1)

    def __neg__(self):
        return _new(self.grading, self.order, self._den,
                    {k: -n for k, n in self._nums.items()})

    def __mul__(self, other):
        g = self.grading
        if isinstance(other, _SCALARS):
            c = _as_fraction(other)
            if not c:
                return _new(g, self.order, 1, {})
            m = c.numerator
            return _make(g, self.order, self._den * c.denominator,
                         {k: n * m for k, n in self._nums.items()})
        other = self._operand(other)
        order = min(self.order, other.order)
        acc = _mul_items(sorted(self._nums.items()), sorted(other._nums.items()),
                         (order + 1) << _WSHIFT)
        return _make(g, order, self._den * other._den,
                     {k: n for k, n in acc.items() if n})

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
                other = Poly.const(other, self.grading, self.order)
            else:
                return NotImplemented
        return (self.grading == other.grading and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self):
        return hash((self.grading, self._den, frozenset(self._nums.items())))

    # ---- calculus -----------------------------------------------------

    def partial(self, var: str, n: int = 1) -> "Poly":
        """Iterated formal derivative.  The truncation order drops by
        n * weight(var): weight-L input terms only pin the derivative down to
        weight L - n*w."""
        i = VAR_INDEX[var]
        s, w = _SHIFTS[i], self.grading.weights[i]
        step = (n << s) + (n * w << _WSHIFT)
        nums = {}
        for k, c in self._nums.items():
            e = (k >> s) & _FMASK
            if e >= n:
                nums[k - step] = c * perm(e, n)
        return _make(self.grading, self.order - n * w, self._den, nums)

    def integrate(self, var: str) -> "Poly":
        i = VAR_INDEX[var]
        s, w = _SHIFTS[i], self.grading.weights[i]
        step = (1 << s) + (w << _WSHIFT)
        items = [(k, c, ((k >> s) & _FMASK) + 1) for k, c in self._nums.items()]
        m = lcm(*(e for _, _, e in items))
        return _make(self.grading, self.order + w, self._den * m,
                     {k + step: c * (m // e) for k, c, e in items})

    # ---- grading structure --------------------------------------------

    def weighted_components(self) -> list:
        """Decomposition into homogeneous parts, increasing weight."""
        buckets: dict = {}
        for k, n in self._nums.items():
            buckets.setdefault(k >> _WSHIFT, {})[k] = n
        return [(w, _make(self.grading, self.order, self._den, buckets[w]))
                for w in sorted(buckets)]

    def component(self, weight: int) -> "Poly":
        lo, hi = weight << _WSHIFT, (weight + 1) << _WSHIFT
        return _make(self.grading, self.order, self._den,
                     {k: n for k, n in self._nums.items() if lo <= k < hi})

    def up_to_weight(self, weight: int) -> "Poly":
        limit = (weight + 1) << _WSHIFT
        return _make(self.grading, self.order, self._den,
                     {k: n for k, n in self._nums.items() if k < limit})

    def coeff_series(self, **fixed) -> "Poly":
        """Coefficient of a monomial in some of the variables, as a polynomial
        in the remaining ones.  coeff_series(b=2, x=2) on f returns the series
        g(a, ...) with f = ... + g * b^2 x^2 + (other b,x powers)."""
        exps = mono_exps(**fixed)
        mask = _mask(fixed)
        fields = sum(e << s for e, s in zip(exps, _SHIFTS))
        step = fields + (self.grading.weight(exps) << _WSHIFT)
        return _make(self.grading, self.order, self._den,
                     {k - step: n for k, n in self._nums.items()
                      if k & mask == fields})

    def set_zero(self, *vars_: str) -> "Poly":
        """Substitute 0 for the named variables."""
        mask = _mask(vars_)
        return _make(self.grading, self.order, self._den,
                     {k: n for k, n in self._nums.items() if not k & mask})

    # ---- substitution -------------------------------------------------

    def substitute(self, subs: Mapping[str, "Poly"]) -> "Poly":
        """Formal composition, truncated; see `Substitution`."""
        return Substitution(subs, self.grading, self.order)(self)

    # ---- printing ------------------------------------------------------

    def sorted_terms(self) -> list:
        """Canonical term order: increasing weight; within a weight, higher
        powers of earlier variables (a before b before x) come first."""
        den = self._den
        keys = sorted(self._nums, key=lambda k: (k >> _WSHIFT, -(k & _LOW)))
        return [(_exps(k), Fraction(self._nums[k], den)) for k in keys]

    def __str__(self):
        if not self._nums:
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

    __slots__ = ("grading", "order", "positions", "factors", "_mask", "_vars",
                 "_limit", "_heads", "_products")

    def __init__(self, subs: Mapping[str, Poly], grading: Grading, order: int):
        g = grading
        for s in subs.values():
            if s.grading != g:
                raise GradingError("substituted series has a different grading")
            order = min(order, s.order)
        self.grading, self.order = g, order
        self._limit = limit = (order + 1) << _WSHIFT
        self.positions = tuple(sorted(VAR_INDEX[v] for v in subs))
        self.factors, self._vars = [], []
        for i in self.positions:
            s, w = subs[VARS[i]], g.weights[i]
            # each series is read as stored, truncated at the order
            items = sorted(s._nums.items())
            if items and items[0][0] >> _WSHIFT < w:
                raise SubstitutionError(
                    f"substitution for {VARS[i]} has weight "
                    f"{items[0][0] >> _WSHIFT} < {w}")
            items = items[:bisect_left(items, (limit,))]
            self.factors.append((s._den, items))
            # every term of a substituted series weighs at least its min
            # weight, so a term whose lightest possible image is above the
            # order is skipped; a zero series annihilates every term using it
            gap = (items[0][0] >> _WSHIFT) - w if items else order + 1
            # its field, the key of the variable alone, and its gap
            self._vars.append((_SHIFTS[i], (1 << _SHIFTS[i]) + (w << _WSHIFT), gap))
        self._mask = _mask(subs)
        # per substituted monomial (its fields of a key): its key and the
        # least weight its image adds above it, shifted to the weight field
        self._heads: dict = {0: (0, 0)}
        self._products = {0: (1, [(0, 1)])}

    def _head(self, fields: int) -> tuple:
        """(key, bump) of the substituted monomial in these fields."""
        key = bump = 0
        for s, unit, gap in self._vars:
            e = (fields >> s) & _FMASK
            key += e * unit
            bump += e * gap
        self._heads[fields] = key, bump << _WSHIFT
        return key, bump << _WSHIFT

    def product(self, key: int) -> tuple:
        """(d, [(key, n)]) sorted by key: the product of the series to the
        powers in the packed monomial `key`, truncated at the order."""
        p = self._products.get(key)
        if p is None:
            # the last variable used goes last, so shared prefixes hit the cache
            j = len(self._vars) - 1
            while not (key >> self._vars[j][0]) & _FMASK:
                j -= 1
            d, items = self.product(key - self._vars[j][1])
            fd, factor = self.factors[j]
            acc = _mul_items(items, factor, self._limit)
            p = d * fd, sorted((k, n) for k, n in acc.items() if n)
            self._products[key] = p
        return p

    def __call__(self, poly: Poly) -> Poly:
        g = self.grading
        if poly.grading is not g and poly.grading != g:
            raise GradingError("substituted series has a different grading")
        order = min(self.order, poly.order)
        limit = (order + 1) << _WSHIFT
        mask, heads, products = self._mask, self._heads, self._products
        live = []
        for k, n in poly._nums.items():
            fields = k & mask
            head = heads.get(fields)
            key, bump = head if head is not None else self._head(fields)
            if k + bump >= limit:
                continue
            p = products.get(key)
            live.append((k - key, n, p if p is not None else self.product(key)))
        # accumulate integer numerators over one common denominator; product
        # terms come sorted by key, so by weight
        den = lcm(*(d for _, _, (d, _) in live))
        out: dict = {}
        get = out.get
        for shift, n, (d, items) in live:
            scale = n * (den // d)
            for pk, pn in items:
                k = pk + shift
                if k >= limit:
                    break
                out[k] = get(k, 0) + scale * pn
        return _make(g, order, den * poly._den, {k: n for k, n in out.items() if n})


class RelaxedSubstitution:
    """Formal composition p -> p(subs) computed one weight at a time while
    the substituted series are still being solved, in the manner of relaxed
    power-series evaluation (van der Hoeven, JSC 2002).

    Each series is zero below the weight of its variable, which keeps the
    filtration; `extend` sets its next homogeneous part.  `part(poly, w)` is
    the weight-w part of poly(subs).  Every product of powers of the series
    gains its weight-d part once, as sum_u [prev]_u [s]_(d-u) over integer
    numerators, with u bounded by the valuations (lowest nonzero weights) of
    the factors, so solving a fixed point degree by degree computes each
    product part once.  Each polynomial read is grouped by weight once, so a
    read at weight w skips its heavier terms.  A read of a part not yet set
    raises SubstitutionError: the fixed point being solved is not
    triangular."""

    __slots__ = ("grading", "positions", "weights", "_series", "_firsts",
                 "_parts", "_reads")

    def __init__(self, variables, grading: Grading):
        self.grading = grading
        self.positions = tuple(sorted(VAR_INDEX[v] for v in variables))
        self.weights = tuple(grading.weights[i] for i in self.positions)
        # per series, its parts (d, [(key, n)]) by weight
        self._series = [[(1, [])] * w for w in self.weights]
        # per series, the weight of its first nonzero part, once set
        self._firsts = [None] * len(self.positions)
        self._parts: dict = {}
        self._reads: dict = {}

    def extend(self, var: str, part: Poly):
        """Set the next homogeneous part of the series substituted for var."""
        j = self.positions.index(VAR_INDEX[var])
        parts = self._series[j]
        w = len(parts)
        if part.grading != self.grading or any(k >> _WSHIFT != w
                                               for k in part._nums):
            raise ValueError(f"the next part of {var} must be homogeneous "
                             f"of weight {w}")
        parts.append((part._den, list(part._nums.items())))
        if part._nums and self._firsts[j] is None:
            self._firsts[j] = w

    def series(self, var: str) -> Poly:
        """The series substituted for var, through its last weight set."""
        parts = self._series[self.positions.index(VAR_INDEX[var])]
        den = lcm(*(d for d, _ in parts))
        return _make(self.grading, len(parts) - 1, den,
                     {k: n * (den // d) for d, items in parts for k, n in items})

    def _read(self, j: int, w: int) -> tuple:
        parts = self._series[j]
        if w >= len(parts):
            raise SubstitutionError(f"the weight-{w} part of the series for "
                                    f"{VARS[self.positions[j]]} is not set yet")
        return parts[w]

    def _valuation(self, j: int) -> int:
        """A lower bound for the weight of every nonzero part of series j:
        its first nonzero part, or else the first part not set yet."""
        first = self._firsts[j]
        return len(self._series[j]) if first is None else first

    def _product(self, key: tuple, w: int) -> tuple:
        """(d, [(key, n)]) of the weight-w part of the product of the series
        to the powers `key`."""
        p = self._parts.get((key, w))
        if p is not None:
            return p
        if not any(key):
            return 1, ([(0, 1)] if w == 0 else [])
        pos = max(j for j, e in enumerate(key) if e)
        prev = key[:pos] + (key[pos] - 1,) + key[pos + 1:]
        if not any(prev):
            p = self._read(pos, w)
        else:
            # prev and the series vanish below their valuations
            low = sum(e * self._valuation(j) for j, e in enumerate(prev) if e)
            pairs = [(self._product(prev, u), self._read(pos, w - u))
                     for u in range(low, w - self._valuation(pos) + 1)]
            pairs = [(a, b) for a, b in pairs if a[1] and b[1]]
            den = lcm(*(a[0] * b[0] for a, b in pairs))
            acc: dict = {}
            get = acc.get
            for (d1, items1), (d2, items2) in pairs:
                scale = den // (d1 * d2)
                for k1, n1 in items1:
                    m = n1 * scale
                    for k2, n2 in items2:
                        k = k1 + k2
                        acc[k] = get(k, 0) + m * n2
            p = den, [(k, n) for k, n in acc.items() if n]
        self._parts[(key, w)] = p
        return p

    def _items(self, poly: Poly) -> tuple:
        """poly as (d, [(weight, powers, shift, weight of shift, n)]), each
        term n / d split into the powers of the substituted variables and
        the key `shift` of the others, sorted by weight.  Formed at the
        first read of poly; the entry keeps poly alive, so its id is not
        reused while the table lives."""
        hit = self._reads.get(id(poly))
        if hit is not None:
            return hit[1]
        shifts = [_SHIFTS[i] for i in self.positions]
        grouped = []
        for k, n in sorted(poly._nums.items()):
            powers = tuple((k >> s) & _FMASK for s in shifts)
            sub_w = sum(e * wt for e, wt in zip(powers, self.weights))
            sub = sum(e << s for e, s in zip(powers, shifts)) + (sub_w << _WSHIFT)
            w = k >> _WSHIFT
            grouped.append((w, powers, k - sub, w - sub_w, n))
        self._reads[id(poly)] = poly, (poly._den, grouped)
        return poly._den, grouped

    def part(self, poly: Poly, w: int) -> Poly:
        """The weight-w part of poly(subs), a Poly of order w."""
        g = self.grading
        if poly.grading != g:
            raise GradingError("substituted series has a different grading")
        d, items = self._items(poly)
        live = []
        for pw, powers, shift, sw, n in items:
            if pw > w:
                break
            p = self._product(powers, w - sw)
            if p[1]:
                live.append((shift, n, p))
        den = lcm(*(pd for _, _, (pd, _) in live))
        out: dict = {}
        get = out.get
        for shift, n, (pd, product) in live:
            scale = n * (den // pd)
            for pk, pn in product:
                k = pk + shift
                out[k] = get(k, 0) + scale * pn
        return _make(g, w, den * d, {k: n for k, n in out.items() if n})
