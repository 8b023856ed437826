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

Rational = Fraction
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


def is_prime(k: int) -> bool:
    return k >= 2 and all(k % p for p in range(2, math.isqrt(k) + 1))


@functools.lru_cache(maxsize=1024)
def sqrt_enclosure(radicand: int, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic interval of width 2**-bits containing sqrt(radicand)."""
    r = math.isqrt(radicand << (2 * bits))
    return Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)


def _clean(coeffs: Coeffs) -> dict[int, Fraction]:
    out = {}
    for k, v in dict(coeffs).items():
        q = Fraction(v)
        if q != 0:
            out[int(k)] = q
    return out


class _SpanElement:
    """Shared machinery of home-sort and quotient-sort elements."""

    __slots__ = ("_coeffs", "_hash")
    _min_key = 0

    def __init__(self, coeffs: Coeffs = ()):
        cleaned = _clean(coeffs)
        if any(k < self._min_key for k in cleaned):
            raise ValueError(f"radicand below {self._min_key} in {cleaned}")
        self._coeffs = cleaned
        self._hash = None

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._coeffs.items()))

    def coeff(self, radicand: int) -> Fraction:
        return self._coeffs.get(radicand, Fraction(0))

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
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            w = out.get(k, 0) + flip * v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return type(self)(out)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return type(self)({k: -v for k, v in self._coeffs.items()})

    def scale(self, q) -> "_SpanElement":
        q = Fraction(q)
        if q == 0:
            return type(self)()
        return type(self)({k: q * v for k, v in self._coeffs.items()})

    def __mul__(self, q):
        if isinstance(q, (int, Fraction)):
            return self.scale(q)
        return NotImplemented

    __rmul__ = __mul__

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
            return self._coeffs.get(0, Fraction(0))
        return None

    def in_q(self) -> bool:
        """Membership in the distinguished subspace (support on key 0 only)."""
        return all(k == 0 for k in self._coeffs)

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        lo = hi = self._coeffs.get(0, Fraction(0))
        for k, q in self._coeffs.items():
            if k == 0:
                continue
            slo, shi = sqrt_enclosure(k, bits)
            if q >= 0:
                lo += q * slo
                hi += q * shi
            else:
                lo += q * shi
                hi += q * slo
        return lo, hi

    def sign(self) -> int:
        if not self._coeffs:
            return 0
        if self.in_q():
            return 1 if self._coeffs[0] > 0 else -1
        bits = 32
        while True:
            lo, hi = self.enclosure(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    def __float__(self) -> float:
        lo, hi = self.enclosure(96)
        return float((lo + hi) / 2)

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
        if not self._coeffs:
            return 0
        lead = self._coeffs[min(self._coeffs)]
        return 1 if lead > 0 else -1

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        return f"pi({section(self)})"


def compare(a: ModelElement, b: ModelElement) -> int:
    """Exact sign of a - b under the real embedding: -1, 0, or 1."""
    return (a - b).sign()


def lex_compare(a: QuotientElement, b: QuotientElement) -> int:
    """Exact comparison in the lexicographic quotient order."""
    return (a - b).lex_sign()


def project(a: ModelElement) -> QuotientElement:
    """The linear quotient map: kill the rational part, keep the rest."""
    return QuotientElement({k: v for k, v in a._coeffs.items() if k != 0})


def section(w: QuotientElement) -> ModelElement:
    """Canonical right inverse of `project`: the representative with zero rational part."""
    return ModelElement(w._coeffs)


def render_combination(items: list[tuple[Fraction, str | None]]) -> str:
    """Render a signed sum like ``3/2 + 1/3*r2 - r5`` (grammar-compatible)."""
    parts = []
    for q, sym in items:
        if q == 0:
            continue
        mag = abs(q)
        if sym is None:
            body = str(mag)
        elif mag == 1:
            body = sym
        else:
            body = f"{mag}*{sym}"
        parts.append(("-" if q < 0 else "+", body))
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
