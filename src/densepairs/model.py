"""Exact arithmetic in the reference structure.

The home sort is the rational span of ``{1, sqrt(2), sqrt(3), sqrt(5), ...}``
inside the reals; the distinguished subspace Q is the rational line ``Q*1``.
Elements are integer rows: a denominator d > 0 and sparse integer
numerators keyed by radicand, with key 0 standing for the unit 1 and key p
(a prime) for sqrt(p), sharing no factor with d, so each value has one row
and arithmetic stays fraction-free (Bareiss 1968).  Because square roots of
distinct primes are linearly independent over the rationals, an element is
zero exactly when it has no numerator, which makes equality a structural
check and lets sign determination terminate: a nonzero value is
eventually separated from 0 by a sufficiently tight dyadic enclosure.

The quotient sort drops the key-0 coordinate.  Its order, used by the
expansion with a quotient comparison predicate, is lexicographic on the
coefficient vector over radicands 2 < 3 < 5 < ...; that order is dense,
has no endpoints, and is compatible with addition and positive rational
scaling, which is everything the engine relies on (and which the test
suite checks rather than assumes).

The row kernel, and every function on the per-call paths of element and
term arithmetic, term evaluation, atom reads and the witness search, is
written with plain loops: no comprehension, generator expression or
`*`-unpacking into a list runs per call.  Python 3.10 and 3.11 build a
function object for every comprehension; PEP 709 inlines list, dict and
set comprehensions from 3.12 on, but generator expressions still
allocate one.  Cold code (rendering, JSON, the constructors) keeps the
comprehension idiom.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Coeffs = Union[Mapping[int, Fraction], Iterable[tuple[int, Fraction]]]


# The largest prime of a Model(MAX_DIM) basis: no radicand beyond it can
# occur in a model, and the primality check below stays a few dozen divisions.
MAX_RADICAND = 7907


def is_prime(k: int) -> bool:
    return k >= 2 and all(k % p for p in range(2, math.isqrt(k) + 1))


def nth_primes(n: int) -> list[int]:
    """The first n primes, each found by `is_prime`: below MAX_RADICAND, the
    largest prime a model names, that is a few dozen divisions per number."""
    return list(itertools.islice(filter(is_prime, itertools.count(2)), n))


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
    """r = floor(sqrt(radicand) * 2**bits), so sqrt(radicand) lies in [r, r + 1] / 2**bits."""
    return math.isqrt(radicand << (2 * bits))


def _bounds(nums: list[tuple[int, int]], bits: int) -> tuple[int, int]:
    """Integers lo <= 2**bits * sum(n_k * sqrt(k)) <= hi, key 0 read as 1:
    each sqrt(k) is taken at the end of its dyadic bracket [r, r + 1] / 2**bits,
    r = _root(k, bits), that makes its term smaller (for lo) or larger (for hi),
    so hi - lo = sum(|n_k|, k > 0)."""
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
    kept = []
    for k, n in nums:
        if n:
            kept.append((k, n))
    if not kept:
        return 0
    if len(kept) == 1:
        return 1 if kept[0][1] > 0 else -1
    bits = 32
    while True:
        lo, hi = _bounds(kept, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


ZERO = Fraction(0)
HALF = Fraction(1, 2)
_RATIONAL_SUPPORT = frozenset({0})


def _scaled(m: Mapping, a: int) -> dict:
    """A new map of m's keys to their values times a."""
    out = {}
    for k, x in m.items():
        out[k] = x * a
    return out


def _divided(m: Mapping, g: int) -> dict:
    """A new map of m's keys to their values floor-divided by g."""
    out = {}
    for k, x in m.items():
        out[k] = x // g
    return out


def add_rows(d: int, n: Mapping, e: int, m: Mapping, a: int = 1) -> tuple[int, dict]:
    """(D, numerators) of the rows n/d + a * m/e, for an integer a != 0, over
    their common denominator D = lcm(d, e).  Cancelled keys are dropped; a key
    new to n costs no addition, and a = 1 no multiplication."""
    if d == e:
        out = dict(n)
    else:
        g = math.gcd(d, e)
        out = _scaled(n, e // g)
        d, a = d // g * e, a * (d // g)
    for k, x in m.items():
        if a != 1:
            x *= a
        w = out.get(k)
        if w is None:
            out[k] = x
        else:
            w += x
            if w:
                out[k] = w
            else:
                del out[k]
    return d, out


def _clean(coeffs: Coeffs, key=int) -> dict:
    """The nonzero entries of coeffs as ints and Fractions; every key goes through
    `key` first, and a value with a zero denominator raises ValueError."""
    out = {}
    for k, q in dict(coeffs).items():
        k = key(k)
        if not isinstance(q, (int, Fraction)):
            try:
                q = Fraction(q)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {q!r}") from None
        if q:
            out[k] = q
    return out


_NO_VARIABLES: dict = {}  # the variable map of every element: shared, so never changed


class _Row:
    """One canonical integer row: the denominator `_d` > 0 and the numerators
    `_v` = {variable: nonzero int} and `_n` = {radicand: nonzero int}, with
    gcd(d, all numerators) = 1, of the affine form
    (sum(a_x * x) + sum(n_k * sqrt(k))) / d, sqrt(0) read as 1.  A model
    element is a row with no variable (`_v` is `_NO_VARIABLES`) and a term a
    row over variables; subclasses fix what the row denotes, and two rows
    are equal only when their classes are.  Rows are never changed, so
    results share maps with their operands; Fractions are built on demand."""

    __slots__ = ("_d", "_v", "_n", "_hash")

    @classmethod
    def _row(cls, d: int, v: dict, n: dict):
        """The row (d, v, n), already canonical; its maps are shared, so never changed."""
        r = object.__new__(cls)
        r._d = d
        r._v = v
        r._n = n
        r._hash = None
        return r

    @classmethod
    def _of(cls, v: Mapping, n: Mapping):
        """The row of maps to nonzero ints and Fractions (`_clean` maps): over the
        lcm of the reduced denominators the numerators share no factor with it."""
        d = math.lcm(*[q.denominator for m in (v, n) for q in m.values()])
        if v:
            v = {x: q.numerator * (d // q.denominator) for x, q in v.items()}
        return cls._row(d, v, {k: q.numerator * (d // q.denominator) for k, q in n.items()})

    @classmethod
    def _reduced(cls, d: int, v: dict, n: dict):
        """The row (d, v, n) with d > 0 and no zero in v or n, made canonical."""
        if d != 1:
            g = math.gcd(d, *n.values())
            if v and g != 1:  # an element's row skips the variables
                g = math.gcd(g, *v.values())
            if g != 1:
                if v:
                    v = _divided(v, g)
                return cls._row(d // g, v, _divided(n, g))
        return cls._row(d, v, n)

    def __reduce__(self):  # the stored hash is rebuilt, not copied
        return self._row, (self._d, self._v, self._n)

    def is_zero(self) -> bool:
        return not self._v and not self._n

    def _merge(self, other, a: int = 1, b: int = 1):
        """self + a/b * other for integers a != 0 and b > 0."""
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if not (other._v or other._n):
            return self
        d, e = self._d, other._d * b
        big, n = add_rows(d, self._n, e, other._n, a)
        v = self._v
        if v or other._v:
            v = add_rows(d, v, e, other._v, a)[1]
        return self._reduced(big, v, n)

    def __add__(self, other):
        return self._merge(other)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        v = self._v
        if v:
            v = _scaled(v, -1)
        return self._row(self._d, v, _scaled(self._n, -1))

    def scale(self, q):
        if q == 1 or not (self._v or self._n):
            return self
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        if not q:
            return self._row(1, _NO_VARIABLES, {})
        a, v = q.numerator, self._v
        if v:
            v = _scaled(v, a)
        return self._reduced(self._d * q.denominator, v, _scaled(self._n, a))

    def __eq__(self, other) -> bool:
        same = type(self) is type(other) and self._d == other._d
        return same and self._n == other._n and self._v == other._v

    def __hash__(self) -> int:
        if self._hash is None:
            v = self._v  # an element's row hashes no variable map
            self._hash = hash((self._d, frozenset(self._n.items()), frozenset(v.items()) if v else None))
        return self._hash


class _SpanElement(_Row):
    """Shared machinery of home-sort and quotient-sort elements: the row of
    the value sum(n_k * sqrt(k)) / d, sqrt(0) read as 1, with no variable."""

    __slots__ = ()
    _min_key = 0

    def __new__(cls, coeffs: Coeffs = ()):
        cleaned = _clean(coeffs)
        if any(k < cls._min_key for k in cleaned):
            raise ValueError(f"radicand below {cls._min_key} in {cleaned}")
        for k in cleaned:
            problem = k and radicand_problem(k)
            if problem:
                raise ValueError(f"r{k} {problem}")
        return cls._of(_NO_VARIABLES, cleaned)

    @classmethod
    def _from_numerators(cls, d: int, nums: dict[int, int]):
        """The element sum(n_k * sqrt(k)) / d, sqrt(0) read as 1, for d > 0 and
        integers n_k of radicands of this sort; zero numerators are dropped.
        With no zero the element keeps nums itself, which is sound only
        because every caller passes a fresh map or a row's own, and neither
        is changed afterwards."""
        if not all(nums.values()):
            kept = {}
            for k, n in nums.items():
                if n:
                    kept[k] = n
            nums = kept
        return cls._reduced(d, _NO_VARIABLES, nums)

    def _terms(self) -> list[tuple[int, int, int]]:
        """(k, n, d) per radicand k, by radicand: the coefficient n/d in lowest terms."""
        d = self._d
        return [(k, n // g, d // g) for k, n in sorted(self._n.items()) for g in [math.gcd(n, d)]]

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return {k: Fraction(n, self._d) for k, n in self._n.items()}

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter([(k, Fraction(n, self._d)) for k, n in sorted(self._n.items())])

    def coeff(self, radicand: int) -> Fraction:
        n = self._n.get(radicand)
        return ZERO if n is None else Fraction(n, self._d)

    def radicands(self) -> frozenset[int]:
        return frozenset(self._n)

    def __bool__(self) -> bool:
        return bool(self._n)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.coeffs!r})"

    def to_json(self) -> dict[str, str]:
        return {str(k): str(n) if d == 1 else f"{n}/{d}" for k, n, d in self._terms()}

    @classmethod
    def from_json(cls, data: Mapping[str, str]):
        return cls(data)  # the constructor reads the keys as ints and the values as Fractions


# CPython refuses to convert integers of more than 4300 digits to text
# (sys.int_info.default_max_str_digits), so decimal_str stops there.
MAX_DIGITS = 4300


@functools.total_ordering
class ModelElement(_SpanElement):
    """A home-sort value: a rational combination of 1 and sqrt(p)'s."""

    __slots__ = ()

    @classmethod
    def from_rational(cls, q) -> "ModelElement":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return cls._row(q.denominator, _NO_VARIABLES, {0: q.numerator} if q else {})

    def rational(self) -> Fraction | None:
        """The value as a Fraction when it lies on the rational line."""
        if self.in_q():
            return Fraction(self._n.get(0, 0), self._d)
        return None

    def in_q(self) -> bool:
        """Membership in the distinguished subspace (support on key 0 only)."""
        return self._n.keys() <= _RATIONAL_SUPPORT

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Dyadic bounds lo <= value <= hi of width sum(|q_k|, k > 0) * 2**-bits."""
        lo, hi = _bounds(self._n.items(), bits)
        d = self._d << bits
        return Fraction(lo, d), Fraction(hi, d)

    def sign(self) -> int:
        return int_sign(self._n.items())

    def decimal_str(self, digits: int = 12) -> str:
        """The value correctly rounded, half up, to `digits` places.

        The enclosure is refined until both its ends round to the same
        digits: a rational value has a zero-width enclosure, and an
        irrational one never sits on a rounding boundary.
        """
        if digits < 0:
            raise ValueError(f"number of decimal digits must be nonnegative, got {digits}")
        if digits > MAX_DIGITS:
            raise ValueError(f"number of decimal digits must be at most {MAX_DIGITS}")
        bits = 4 * (digits + 3) + 16
        while True:
            n, n_hi = (math.floor(q * 10**digits + HALF) for q in self.enclosure(bits))
            if n == n_hi:
                break
            bits *= 2
        sign = "-" if n < 0 else ""
        whole, frac = divmod(abs(n), 10**digits)
        if digits == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{frac:0{digits}d}"

    # the order is between ModelElements only: any other operand gets NotImplemented,
    # so Python raises TypeError as `+` does (`compare` itself checks nothing);
    # total_ordering derives <=, > and >= from this guard and the row equality
    def __lt__(self, other) -> bool:
        if type(other) is not ModelElement:
            return NotImplemented
        return compare(self, other) < 0

    def __str__(self) -> str:
        d = self._d
        return sum_text([summand_text(n, d, f"r{k}" if k else None) for k, n in sorted(self._n.items())])


class QuotientElement(_SpanElement):
    """A quotient-sort value: a home element with the rational part erased."""

    __slots__ = ()
    _min_key = 2

    def lex_sign(self) -> int:
        """Sign under the lexicographic order on coefficients over 2 < 3 < 5 < ..."""
        return lead_sign(self._n)

    def __str__(self) -> str:
        if not self._n:
            return "0"
        return f"pi({section(self)})"


def compare(a: ModelElement, b: ModelElement) -> int:
    """Exact sign of a - b under the real embedding: -1, 0, or 1.  With
    a = sum(m_k * sqrt(k)) / da and b = sum(n_k * sqrt(k)) / db, it is the
    sign of sum((m_k * db - n_k * da) * sqrt(k)), on the two rows."""
    da, na = a._d, a._n
    db, nb = b._d, b._n
    if na.keys() <= _RATIONAL_SUPPORT and nb.keys() <= _RATIONAL_SUPPORT:
        diff = na.get(0, 0) * db - nb.get(0, 0) * da
        return (diff > 0) - (diff < 0)
    diff = []
    for k in na.keys() | nb.keys():
        diff.append((k, na.get(k, 0) * db - nb.get(k, 0) * da))
    return int_sign(diff)


def lead_sign(coeffs: Mapping[int, Fraction | int]) -> int:
    """The quotient order, written once: a coefficient map over radicands
    2 < 3 < 5 < ... has the sign of its lowest radicand's nonzero coefficient."""
    lead = None
    for k, n in coeffs.items():
        if n and (lead is None or k < lead):
            lead, sign = k, n
    return 0 if lead is None else 1 if sign > 0 else -1


def lex_compare(a: QuotientElement, b: QuotientElement) -> int:
    """Exact comparison in the lexicographic quotient order."""
    return (a - b).lex_sign()


def project(a: ModelElement) -> QuotientElement:
    """The linear quotient map: kill the rational part, keep the rest."""
    n = a._n
    if 0 not in n:
        return QuotientElement._row(a._d, a._v, n)
    n = dict(n)
    del n[0]
    return QuotientElement._reduced(a._d, a._v, n)


def section(w: QuotientElement) -> ModelElement:
    """Canonical right inverse of `project`: the representative with zero rational part."""
    return ModelElement._row(w._d, w._v, w._n)


def summand_text(m: int, d: int, symbol: str | None) -> tuple[bool, str]:
    """(m < 0, the text of |m|/d in lowest terms times symbol, None for 1)."""
    g = math.gcd(m, d)
    mag = str(abs(m) // g) if g == d else f"{abs(m) // g}/{d // g}"
    return m < 0, mag if symbol is None else symbol if mag == "1" else f"{mag}*{symbol}"


def sum_text(summands: list[tuple[bool, str]]) -> str:
    """The text of a sum of `summand_text`s, like ``3/2 + 1/3*r2 - r5``; 0 for none."""
    text = "".join((" - " if negative else " + ") + t for negative, t in summands)
    return ("-" if text[1:2] == "-" else "") + text[3:] or "0"


def rational_between(a: ModelElement, b: ModelElement) -> Fraction:
    """Some rational strictly between a and b; raises ValueError unless a < b."""
    if a == b:
        raise ValueError("rational_between needs a < b, got a = b")
    da, db = a._d, b._d
    bits = 32
    while True:
        a_lo, a_hi = _bounds(a._n.items(), bits)  # a's bounds times da * 2**bits
        b_lo, b_hi = _bounds(b._n.items(), bits)  # b's times db * 2**bits
        if a_hi * db < b_lo * da:
            return Fraction(a_hi * db + b_lo * da, (da * db) << (bits + 1))
        if b_hi * da <= a_lo * db:
            raise ValueError("rational_between needs a < b, got a > b")
        bits *= 2


def rational_below(a: ModelElement) -> Fraction:
    return Fraction(_bounds(a._n.items(), 32)[0] // (a._d << 32) - 1)


def rational_above(a: ModelElement) -> Fraction:
    return Fraction(1 - _bounds(a._n.items(), 32)[1] // -(a._d << 32))


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
