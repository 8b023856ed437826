"""Exact evaluation of the canonical finitely additive measure.

The measure concentrates on the unit interval: an interval gets its
length, any set covered by finitely many cosets of the rational line
gets 0, and those two rules already determine the value on every
definable set through the canonical decomposition: the value is the
length of its cofinite pieces.  Those pieces are the cells of the sign
table (`decomposition.sign_table`) whose reading outside every named
coset holds, so the value is read off the table, a sum of cell lengths,
and no decomposition is built.  In the standard
archimedean reference model the standard-part map is the identity, so
measure values are exact model elements rather than approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .decomposition import sign_table
from .errors import InternalError
from .evaluate import Assignment
from .formulas import Formula, TheoryMode, check_parameters, free_variables, ground, home_lt, make_and
from .model import ModelElement, _bounds, compare
from .qe import qe
from .terms import HomeTerm, Variable


ZERO = ModelElement.from_rational(0)
ONE = ModelElement.from_rational(1)


@dataclass(frozen=True)
class MeasureValue:
    """An exact measure value in [0, 1]."""

    value: ModelElement

    def __post_init__(self):
        if self.value.sign() < 0 or compare(self.value, ONE) > 0:
            raise InternalError(f"measure value {self.value} outside [0, 1]")

    def __str__(self) -> str:
        return str(self.value)

    def to_json(self):
        return self.value.to_json()


def _unit_window(f: Formula, v: Variable) -> Formula:
    """f & 0 < v & v < 1."""
    x = HomeTerm.from_variable(v)
    return make_and([f, home_lt(-x), home_lt(x - HomeTerm.from_element(ONE))])


def measure(f: Formula, v: Variable, assignment: Assignment | None = None) -> MeasureValue:
    """The measure of the set defined by f in v, concentrated on (0, 1)."""
    window = ground(_unit_window(f, v), {v}, assignment)
    return _cell_lengths(sign_table(qe(window, TheoryMode.POVS), v)({}))


def _cell_lengths(table: tuple) -> MeasureValue:
    """The measure of a set inside the unit window, from its sign table:
    the total length of the cells whose outside reading holds, the cells
    meeting all but finitely many cosets; the rest of the set is
    coset-coverable, hence null.  Summed cell by cell, this is the length
    of the cofinite pieces the sweep would merge the cells into."""
    holds, ends, _ = table
    total = ZERO
    for i in range(len(ends) + 1):
        if holds(2 * i, None):
            if not 0 < i < len(ends):
                raise InternalError("unbounded piece inside the unit window")
            total = total + (ends[i] - ends[i - 1])
    return MeasureValue(total)


def bucket_index(value: ModelElement, k: int) -> int:
    """The least j in 1..k with value <= j/k, so (j-1)/k < value <= j/k on
    (0, 1], ties going down: j = max(1, ceil(k * value)).  The ceiling is
    read off the value's dyadic enclosure, refined until both its ends give
    the same ceiling, as `ModelElement.decimal_str` rounds: a rational
    value has a zero-width enclosure, and an irrational k * value is no
    integer, so the ends part from every integer in the end.  The ends are
    taken as integers over d * 2**bits (`model._bounds`), not as the
    enclosure's Fractions, whose normalising gcds would cost several times
    the rest of this per-tuple read."""
    if k < 1:
        raise ValueError("k must be at least 1")
    nums, d = value._n.items(), value._d
    bits = 32
    while True:
        lo, hi = _bounds(nums, bits)
        d_bits = d << bits
        j = -(-k * lo // d_bits)
        if j == -(-k * hi // d_bits):
            break
        bits *= 2
    if j > k:
        raise InternalError(f"value {value} above 1")
    return max(1, j)


@dataclass(frozen=True)
class BucketEntry:
    params: tuple[tuple[Variable, object], ...]
    bucket: int
    value: ModelElement

    def to_json(self):
        return {
            "params": {var.name: val.to_json() for var, val in self.params},
            "bucket": self.bucket,
            "measure": self.value.to_json(),
        }


@dataclass(frozen=True)
class BucketReport:
    """Exact measures of one definable family at several parameter tuples,
    bucketed into k bands of width 1/k.

    Parameters landing in the same bucket have measures within 2/k of
    each other, which is the uniform-definability bound the partition
    exists to witness.
    """

    k: int
    entries: tuple[BucketEntry, ...]

    def to_json(self):
        return {"k": self.k, "assignments": [e.to_json() for e in self.entries]}


def bucket_partition(
    f: Formula, v: Variable, params: Sequence[Assignment], k: int
) -> BucketReport:
    """The measures of the family f(v; params) at each parameter tuple,
    bucketed into k bands.

    Elimination is uniform in the parameters, so the family's unit window
    is eliminated once, with its parameters free, and each tuple costs the
    evaluation of the roots that hold a parameter, one sort of the
    endpoints and one outside reading per cell of its sign table
    (`decomposition.sign_table`).
    Errors come in the order a per-tuple `measure` would raise them:
    ValueError for k < 1; then, with no tuple, an empty report that never
    looks at f or v; SortError for a v that is not home-sort; NotGroundError
    or TypeError for the first tuple's unbound or ill-sorted parameter;
    ModeError from the elimination; and the same two for any later tuple.
    Every free parameter of f must be bound to a value of its sort, even
    one that the elimination drops.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not params:
        return BucketReport(k, ())
    window = _unit_window(f, v)
    free = check_parameters(free_variables(window) - {v}, params[0])
    table = sign_table(qe(window, TheoryMode.POVS), v)
    entries = []
    for assignment in params:
        check_parameters(free, assignment)
        value = _cell_lengths(table(assignment)).value
        ordered = tuple(sorted(assignment.items(), key=lambda kv: kv[0].sort_key()))
        entries.append(BucketEntry(ordered, bucket_index(value, k), value))
    return BucketReport(k, tuple(entries))

