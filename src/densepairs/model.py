"""Exact arithmetic in the reference structure.

The home sort is the rational span of ``{1, sqrt(2), sqrt(3), sqrt(5), ...}``
inside the reals; the distinguished subspace Q is the rational line ``Q*1``.
Elements are sparse coefficient maps keyed by radicand, with key 0 standing
for the unit 1 and key p (a prime) for sqrt(p).  Because square roots of
distinct primes are linearly independent over the rationals, an element is
zero exactly when its coefficient map is empty, which makes equality a
structural check and lets sign determination terminate: a nonzero value is
eventually separated from 0 by a sufficiently tight dyadic enclosure.

The quotient sort drops the key-0 coordinate.  Its order, used by the
expansion with a quotient comparison predicate, is lexicographic on the
coefficient vector over radicands 2 < 3 < 5 < ...; that order is dense,
has no endpoints, and is compatible with addition and positive rational
scaling, which is everything the engine relies on (and which the test
suite checks rather than assumes).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Coeffs = Union[Mapping[int, Fraction], Iterable[tuple[int, Fraction]]]


def nth_primes(n: int) -> list[int]:
    """The first n primes, by trial division (n stays tiny here)."""
    primes: list[int] = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


# The largest prime of a Model(MAX_DIM) basis: no radicand beyond it can
# occur in a model, and the primality check below stays a few dozen divisions.
MAX_RADICAND = 7907


def is_prime(k: int) -> bool:
    return k >= 2 and all(k % p for p in range(2, math.isqrt(k) + 1))


def radicand_problem(k: int) -> str | None:
    """What keeps sqrt(k), written r<k>, from being a basis element, or None
    when it is one: k must be a prime of at most MAX_RADICAND."""
    if k > MAX_RADICAND:
        return f"is beyond the largest supported radicand r{MAX_RADICAND}"
    if not is_prime(k):
        return "is not a square root of a prime"
    return None


@functools.lru_cache(maxsize=1024)
def _root(radicand: int, bits: int) -> int:
    """floor(sqrt(radicand) * 2**bits), the lower end of sqrt_enclosure scaled by 2**bits."""
    return math.isqrt(radicand << (2 * bits))


def sqrt_enclosure(radicand: int, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic interval of width 2**-bits containing sqrt(radicand)."""
    r = _root(radicand, bits)
    return Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)


def _bounds(nums: list[tuple[int, int]], bits: int) -> tuple[int, int]:
    """Integers lo <= 2**bits * sum(n_k * sqrt(k)) <= hi, key 0 read as 1:
    each sqrt(k) is taken at the end of sqrt_enclosure(k, bits) that makes
    its term smaller (for lo) or larger (for hi), so hi - lo = sum(|n_k|, k > 0)."""
    lo = spread = 0
    for k, n in nums:
        if k == 0:
            lo += n << bits
        elif n > 0:
            lo += n * _root(k, bits)
            spread += n
        else:
            lo += n * (_root(k, bits) + 1)
            spread -= n
    return lo, lo + spread


def int_sign(nums: Iterable[tuple[int, int]]) -> int:
    """Sign of sum(n_k * sqrt(k)) over distinct radicands, key 0 read as 1,
    for integers n_k: refines dyadic bounds until they exclude 0."""
    nums = [(k, n) for k, n in nums if n]
    if not nums:
        return 0
    if len(nums) == 1:
        return 1 if nums[0][1] > 0 else -1
    bits = 32
    while True:
        lo, hi = _bounds(nums, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


ZERO = Fraction(0)
_RATIONAL_SUPPORT = frozenset({0})


def add_scaled(out: dict, coeffs: Mapping, q=1) -> dict:
    """Add q * coeffs into the clean map `out` in place and return it.

    q is a nonzero rational, or a nonzero integer for maps to integers; keys
    whose sum cancels are dropped, so `out` stays clean.  A key new to `out`
    costs no addition, q = 1 no multiplication, q = -1 a negation.
    """
    items = coeffs.items()
    if q != 1:
        items = [(k, -v) for k, v in items] if q == -1 else [(k, q * v) for k, v in items]
    for k, v in items:
        w = out.get(k)
        if w is None:
            out[k] = v
        else:
            w += v
            if w:
                out[k] = w
            else:
                del out[k]
    return out


def _clean(coeffs: Coeffs) -> dict[int, Fraction]:
    out = {}
    for k, v in dict(coeffs).items():
        q = Fraction(v)
        if q != 0:
            out[int(k)] = q
    return out


class _SpanElement:
    """Shared machinery of home-sort and quotient-sort elements."""

    __slots__ = ("_coeffs", "_hash", "_ints")
    _min_key = 0

    def __init__(self, coeffs: Coeffs = ()):
        cleaned = _clean(coeffs)
        if any(k < self._min_key for k in cleaned):
            raise ValueError(f"radicand below {self._min_key} in {cleaned}")
        for k in cleaned:
            problem = k and radicand_problem(k)
            if problem:
                raise ValueError(f"r{k} {problem}")
        self._coeffs = cleaned
        self._hash = None
        self._ints = None

    @classmethod
    def _make(cls, coeffs: dict[int, Fraction]):
        """The element of a clean map: radicands of this sort to nonzero Fractions."""
        e = object.__new__(cls)
        e._coeffs = coeffs
        e._hash = None
        e._ints = None
        return e

    def __reduce__(self):  # stored hash and numerators are rebuilt, not copied
        return self._make, (self._coeffs,)

    @classmethod
    def _from_numerators(cls, d: int, nums: Mapping[int, int]):
        """The element sum(n_k * sqrt(k)) / d, sqrt(0) read as 1, for d > 0 and
        integers n_k of radicands of this sort; zero numerators are dropped."""
        return cls._make({k: Fraction(n, d) for k, n in nums.items() if n})

    def _numerators(self) -> tuple[int, dict[int, int]]:
        """(d, {k: n_k}): the value is sum(n_k * sqrt(k)) / d with d > 0 and
        every n_k a nonzero integer (sqrt(0) read as 1).  Made once per
        element; the map is shared, so it is never changed."""
        ints = self._ints
        if ints is None:
            coeffs = self._coeffs
            d = math.lcm(*[q.denominator for q in coeffs.values()])
            nums = {k: q.numerator * (d // q.denominator) for k, q in coeffs.items()}
            ints = self._ints = (d, nums)
        return ints

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._coeffs.items()))

    def coeff(self, radicand: int) -> Fraction:
        return self._coeffs.get(radicand, ZERO)

    def radicands(self) -> frozenset[int]:
        return frozenset(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((type(self).__name__, tuple(sorted(self._coeffs.items()))))
        return self._hash

    def _merge(self, other, flip: int):
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        return self._make(add_scaled(dict(self._coeffs), other._coeffs, flip))

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return self._make({k: -v for k, v in self._coeffs.items()})

    def scale(self, q) -> "_SpanElement":
        if q == 1:
            return self
        if not isinstance(q, Fraction):
            q = Fraction(q)
        if q == 0:
            return self._make({})
        return self._make({k: q * v for k, v in self._coeffs.items()})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._coeffs!r})"

    def to_json(self) -> dict[str, str]:
        return {str(k): str(v) for k, v in sorted(self._coeffs.items())}

    @classmethod
    def from_json(cls, data: Mapping[str, str]):
        return cls({int(k): Fraction(v) for k, v in data.items()})


# CPython refuses to convert integers of more than 4300 digits to text
# (sys.int_info.default_max_str_digits), so decimal_str stops there.
MAX_DIGITS = 4300


class ModelElement(_SpanElement):
    """A home-sort value: a rational combination of 1 and sqrt(p)'s."""

    _min_key = 0

    @classmethod
    def from_rational(cls, q) -> "ModelElement":
        return cls({0: Fraction(q)})

    def rational(self) -> Fraction | None:
        """The value as a Fraction when it lies on the rational line."""
        if self.in_q():
            return self._coeffs.get(0, ZERO)
        return None

    def in_q(self) -> bool:
        """Membership in the distinguished subspace (support on key 0 only)."""
        return self._coeffs.keys() <= _RATIONAL_SUPPORT

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Dyadic bounds lo <= value <= hi of width sum(|q_k|, k > 0) * 2**-bits."""
        d, nums = self._numerators()
        lo, hi = _bounds(nums.items(), bits)
        return Fraction(lo, d << bits), Fraction(hi, d << bits)

    def sign(self) -> int:
        return int_sign(self._numerators()[1].items())

    def decimal_str(self, digits: int = 12) -> str:
        """Decimal approximation, rounded to `digits` places."""
        if digits < 0:
            raise ValueError(f"number of decimal digits must be nonnegative, got {digits}")
        if digits > MAX_DIGITS:
            raise ValueError(f"number of decimal digits must be at most {MAX_DIGITS}")
        bits = 4 * (digits + 3) + 16
        lo, hi = self.enclosure(bits)
        mid = (lo + hi) / 2
        scaled = mid * 10**digits
        n = scaled.numerator // scaled.denominator
        if 2 * (scaled - n) >= 1:
            n += 1
        sign = "-" if n < 0 else ""
        n = abs(n)
        whole, frac = divmod(n, 10**digits)
        if digits == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{frac:0{digits}d}"

    def __lt__(self, other) -> bool:
        return compare(self, other) < 0

    def __le__(self, other) -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other) -> bool:
        return compare(self, other) > 0

    def __ge__(self, other) -> bool:
        return compare(self, other) >= 0

    def __str__(self) -> str:
        return render_combination(
            [(q, None if k == 0 else f"r{k}") for k, q in self.items()]
        )


class QuotientElement(_SpanElement):
    """A quotient-sort value: a home element with the rational part erased."""

    _min_key = 2

    def lex_sign(self) -> int:
        """Sign under the lexicographic order on coefficients over 2 < 3 < 5 < ..."""
        return lead_sign(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        return f"pi({section(self)})"


def compare(a: ModelElement, b: ModelElement) -> int:
    """Exact sign of a - b under the real embedding: -1, 0, or 1, from the
    two numerator vectors over their common denominator."""
    da, na = a._numerators()
    db, nb = b._numerators()
    d = math.lcm(da, db)
    return int_sign(add_scaled(add_scaled({}, na, d // da), nb, -(d // db)).items())


def lead_sign(coeffs: Mapping[int, Fraction | int]) -> int:
    """The quotient order, written once: a coefficient map over radicands
    2 < 3 < 5 < ... has the sign of its lowest radicand's nonzero coefficient."""
    lead = min((k for k, n in coeffs.items() if n), default=None)
    return 0 if lead is None else 1 if coeffs[lead] > 0 else -1


def lex_compare(a: QuotientElement, b: QuotientElement) -> int:
    """Exact comparison in the lexicographic quotient order."""
    return (a - b).lex_sign()


def project(a: ModelElement) -> QuotientElement:
    """The linear quotient map: kill the rational part, keep the rest."""
    return QuotientElement._make({k: v for k, v in a._coeffs.items() if k != 0})


def section(w: QuotientElement) -> ModelElement:
    """Canonical right inverse of `project`: the representative with zero rational part."""
    return ModelElement._make(dict(w._coeffs))


def render_combination(items: list[tuple[Fraction, str | None]]) -> str:
    """Render nonzero (coefficient, symbol or None for 1) pairs like ``3/2 + 1/3*r2 - r5``."""
    parts = []
    for q, sym in items:
        n, d = q.numerator, q.denominator  # |q| is written from these, as str(abs(q)) would
        mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
        if sym is None:
            body = mag
        elif mag == "1":
            body = sym
        else:
            body = f"{mag}*{sym}"
        parts.append(("-" if n < 0 else "+", body))
    if not parts:
        return "0"
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for s, b in parts[1:]:
        out += f" {s} {b}"
    return out


def rational_between(a: ModelElement, b: ModelElement) -> Fraction:
    """Some rational strictly between a and b; requires a < b."""
    bits = 32
    while True:
        a_hi = a.enclosure(bits)[1]
        b_lo = b.enclosure(bits)[0]
        if a_hi < b_lo:
            return (a_hi + b_lo) / 2
        bits *= 2


def rational_below(a: ModelElement) -> Fraction:
    lo = a.enclosure(32)[0]
    return Fraction(lo.numerator // lo.denominator - 1)


def rational_above(a: ModelElement) -> Fraction:
    hi = a.enclosure(32)[1]
    return Fraction(-((-hi).numerator // hi.denominator) + 1)


MAX_DIM = 1000


class Model:
    """A concrete reference structure of home-sort dimension dim >= 2.

    The basis is 1 together with the square roots of the first dim - 1
    primes; dim >= 2 keeps the rational line a proper subspace, so the
    density axioms of the pair hold.  dim is capped at MAX_DIM because the
    prime table is built by trial division.
    """

    __slots__ = ("dim", "primes")

    def __init__(self, dim: int = 3):
        if dim < 2:
            raise ValueError("model dimension must be at least 2")
        if dim > MAX_DIM:
            raise ValueError(f"model dimension must be at most {MAX_DIM}")
        self.dim = dim
        self.primes = tuple(nth_primes(dim - 1))

    @property
    def radicands(self) -> tuple[int, ...]:
        return (0,) + self.primes

    def contains(self, a: _SpanElement) -> bool:
        allowed = set(self.radicands)
        return all(k in allowed for k in a.radicands())

    def __repr__(self) -> str:
        return f"Model(dim={self.dim})"
