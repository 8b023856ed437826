"""Canonical decomposition of unary definable subsets of the home sort.

Every such set is a finite set of points plus finitely many disjoint
pieces of the form (a, b) intersected with the preimage of a finite or
cofinite set of cosets.  The algorithm: eliminate quantifiers and read
the atoms of the result once.  Each order atom on the variable has a
root, an endpoint, and each membership or quotient atom on it a root
naming the one coset it pins; other free variables may stay in the
result, to be assigned when the roots are evaluated.  Where the variable
sits decides every atom on it: an order atom by its rank against the
endpoint and the sign of its coefficient, a coset atom by whether it
lies in the coset.  So on an open cell the formula sees only which named
coset, if any, holds the variable, and a truth table built from the
ranks (`sign_table`) is read at each named coset and at a coset outside
them all: the outside reading decides finite or cofinite, and the named
cosets that differ from it are the members.  No normal form and no point
is built; `measure` reads cell lengths off the same table and `coding`
its line sets, with the line put into each atom.  The generic type
needs no table: a coset outside every named point fails every atom.
One left-to-right sweep over the cells reads each pattern and, at each
endpoint, decides whether the endpoint is a listed point and whether its
cell coalesces with the previous piece (whenever that preserves the
denoted set).  The output is canonical and ascending as it comes: equal
sets yield equal decompositions no matter which formula defined them,
and no caller sorts or coalesces it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Callable

from .errors import ArityError
from .evaluate import Assignment, atoms, run
from .formulas import _HOME_LT, _IN_Q, KINDS, Atom, Formula, TheoryMode, eval_atom, ground
from .model import (
    ModelElement,
    QuotientElement,
    compare,
    lex_compare,
    project,
)
from .qe import qe
from .terms import Sort, Variable


@dataclass(frozen=True)
class Endpoint:
    """A point of the extended line: -inf, a model element, or +inf."""

    side: int  # -1 for -inf, 0 for a finite value, +1 for +inf
    value: ModelElement | None = None

    def __post_init__(self):
        assert (self.side == 0) == (self.value is not None)

    @classmethod
    def neg_inf(cls) -> "Endpoint":
        return cls(-1)

    @classmethod
    def pos_inf(cls) -> "Endpoint":
        return cls(1)

    @classmethod
    def at(cls, value: ModelElement) -> "Endpoint":
        return cls(0, value)

    def is_finite(self) -> bool:
        return self.side == 0

    def compare(self, other: "Endpoint") -> int:
        if self.side != other.side:
            return -1 if self.side < other.side else 1
        if self.side != 0:
            return 0
        return compare(self.value, other.value)

    def __str__(self) -> str:
        if self.side < 0:
            return "-inf"
        if self.side > 0:
            return "+inf"
        return str(self.value)

    def to_json(self):
        return str(self) if self.side else self.value.to_json()


@dataclass(frozen=True)
class CosetSet:
    """A finite or cofinite set of cosets, named by canonical representatives."""

    cofinite: bool
    members: frozenset[QuotientElement]

    @classmethod
    def none(cls) -> "CosetSet":
        return cls(False, frozenset())

    def is_empty(self) -> bool:
        return not self.cofinite and not self.members

    def contains(self, w: QuotientElement) -> bool:
        return (w in self.members) != self.cofinite

    @property
    def polarity(self) -> str:
        return "cofinite" if self.cofinite else "finite"


@dataclass(frozen=True)
class NearInterval:
    """(a, b) intersected with the preimage of a coset set; small when the
    coset set is finite, large when it is cofinite."""

    lo: Endpoint
    hi: Endpoint
    cosets: CosetSet

    def __post_init__(self):
        assert self.lo.compare(self.hi) < 0, "near-interval needs a nonempty interval"
        assert not self.cosets.is_empty(), "near-interval needs a nonempty coset set"

    def spans(self, m: ModelElement) -> bool:
        """Whether m lies strictly between the endpoints."""
        lo, hi = self.lo, self.hi
        return (lo.side < 0 if lo.value is None else compare(lo.value, m) < 0) and (
            hi.side > 0 if hi.value is None else compare(m, hi.value) < 0
        )

    def meets(self, other: "NearInterval") -> bool:
        """Whether the two pieces share a point: their open intervals overlap
        and their coset sets share a coset, which is dense in the overlap."""
        if self.lo.compare(other.hi) >= 0 or other.lo.compare(self.hi) >= 0:
            return False
        a, b = self.cosets, other.cosets
        if not a.cofinite:
            return any(map(b.contains, a.members))
        return b.cofinite or any(map(a.contains, b.members))

    def sorted_cosets(self) -> tuple[QuotientElement, ...]:
        return tuple(sorted(self.cosets.members, key=cmp_to_key(lex_compare)))

    def to_json(self):
        return {
            "a": self.lo.to_json(),
            "b": self.hi.to_json(),
            "polarity": self.cosets.polarity,
            "cosets": [w.to_json() for w in self.sorted_cosets()],
        }

    def __str__(self) -> str:
        names = ", ".join(str(w) for w in self.sorted_cosets())
        if self.cosets.cofinite:
            tail = f"outside cosets {{{names}}}" if names else "all cosets"
        else:
            tail = f"in cosets {{{names}}}"
        return f"({self.lo}, {self.hi}) {tail}"


@dataclass(frozen=True)
class Decomposition:
    """A finite point set plus disjoint pieces, jointly denoting the set.

    In canonical form the pieces are the near-interior and the points the
    near-frontier: around any point of a piece the set looks like the
    piece's own pattern, while each listed point is isolated, sits between
    two different patterns, or fills a hole of the surrounding pattern.
    Points and pieces come out in increasing order.
    """

    points: tuple[ModelElement, ...]
    pieces: tuple[NearInterval, ...]

    def contains(self, m: ModelElement) -> bool:
        if m in self.points:
            return True
        w = None  # the coset of m, projected once, when a piece lists cosets
        for p in self.pieces:
            if p.spans(m):
                if not p.cosets.members:  # a piece's coset set is never empty: all cosets
                    return True
                w = project(m) if w is None else w
                if p.cosets.contains(w):
                    return True
        return False

    def is_empty(self) -> bool:
        return not self.points and not self.pieces

    def to_json(self):
        return {
            "points": [p.to_json() for p in self.points],
            "pieces": [p.to_json() for p in self.pieces],
        }

    def __str__(self) -> str:
        bits = []
        if self.points:
            bits.append("points: " + ", ".join(str(p) for p in self.points))
        bits.extend(str(p) for p in self.pieces)
        return "\n".join(bits) if bits else "(empty set)"


def decompose(
    f: Formula, v: Variable, assignment: Assignment | None = None
) -> Decomposition:
    """The canonical decomposition of the set defined by f in the variable v."""
    if v.sort is not Sort.HOME:
        raise ArityError(f"{v} is not a home-sort variable")
    return _sweep(*sign_table(qe(ground(f, {v}, assignment), TheoryMode.POVS), v)({}))


def sign_table(
    g: Formula, v: Variable, atom_map: Callable[[Atom], Atom] = lambda atom: atom
) -> Callable[[Assignment], tuple]:
    """The sign table of a quantifier-free g in the home variable v: it maps
    an assignment of g's other free variables to (holds, ends, named), the
    test, sorted endpoints and named cosets that `_sweep` reads.

    Each atom of g is read once, as atom_map makes it (`coding` puts a line
    in for a second variable; an atom that becomes ground reads as a
    constant).  An atom on v holds or fails by where v sits against its root
    in the other variables: an order atom by the rank of v against that
    endpoint and the sign of v's coefficient, a coset atom by whether v lies
    in the one coset the root names.  A ground root, such as a bound of the
    unit window, is evaluated once, as the table is built.  Each assignment
    then evaluates only the other roots and the atoms without v, and sorts
    the order atoms' endpoints once, equal neighbours sharing a position;
    holds runs g's one evaluation plan over the truth table this gives.  The
    plan lists equal atoms as one object, so the table is keyed by identity,
    and neither building nor reading it compares formulas."""
    order = KINDS[Sort.HOME]
    # the atoms with v, each with its root and, when that is ground, the
    # root's value (its coset for a coset atom); the atoms without v
    on_order, on_coset, off_v = [], [], []
    for k, atom in {id(atom): atom for atom in atoms(g)}.items():
        read = atom_map(atom)
        if sign := read.payload.coeff_sign(v):
            r = read.payload.root(v)
            fixed = r.evaluate({}) if r.is_ground() else None
            if read.kind in order:
                on_order.append((k, read.kind is _HOME_LT, sign > 0, r, fixed))
            else:
                under_pi = read.kind is _IN_Q
                if under_pi and fixed is not None:
                    fixed = project(fixed)
                on_coset.append((k, under_pi, r, fixed))
        else:
            off_v.append((k, read))
    indices = range(len(on_order))

    def table_at(assignment: Assignment) -> tuple:
        points = []
        for _, _, _, r, fixed in on_order:
            points.append(r.evaluate(assignment) if fixed is None else fixed)
        ends = []
        rank = [0] * len(points)  # positions, as _sweep counts them
        for i in sorted(indices, key=points.__getitem__):
            e = points[i]
            if not ends or e != ends[-1]:
                ends.append(e)
            rank[i] = 2 * len(ends) - 1
        top = 2 * len(ends) + 1
        # an order or constant atom holds at the positions lo < i < hi, a coset atom in its coset
        value = {}
        for k, read in off_v:
            value[k] = (-1, top) if eval_atom(read, assignment) else (0, 0)
        for (k, lt, up, _, _), pos in zip(on_order, rank):
            if lt:  # a * (v - r) < 0: v below r if a > 0, above if a < 0
                value[k] = (-1, pos) if up else (pos, top)
            else:
                value[k] = (pos - 1, pos + 1)
        named = set()
        for k, under_pi, r, w in on_coset:
            if w is None:
                w = r.evaluate(assignment)
                if under_pi:
                    w = project(w)
            value[k] = w
            named.add(w)

        def truth(atom, at) -> bool:
            t = value[id(atom)]
            return t[0] < at[0] < t[1] if type(t) is tuple else t == at[1]

        return (lambda i, w: run(g, truth, (i, w))), ends, named

    return table_at


def _sweep(
    holds: Callable[[int, QuotientElement | None], bool],
    ends: list[ModelElement],
    named: set[QuotientElement],
) -> Decomposition:
    """The canonical decomposition of the points where holds is true, for a
    test asked at positions: holds(i, w) covers, in the coset w, the open
    cell just below ends[i // 2] (or +inf) for even i and ends[i // 2] itself
    for odd i.  In a cell w is a named coset or None, for any other coset;
    at an endpoint it is the endpoint's own coset."""
    # one left-to-right sweep over the cells: each endpoint is decided as
    # the cell after it is read, so points and pieces come out ascending
    points: list[ModelElement] = []
    pieces: list[NearInterval] = []
    last = CosetSet.none()  # the previous cell's pattern
    bounds = [Endpoint.neg_inf(), *map(Endpoint.at, ends), Endpoint.pos_inf()]
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        # the outside coset decides finite or cofinite, and the named
        # cosets that differ from it are the members
        cofinite = holds(2 * i, None)
        pattern = CosetSet(
            cofinite, frozenset(w for w in named if holds(2 * i, w) != cofinite)
        )
        # the last piece ends at lo and has this pattern: merge across lo
        # unless the merged piece would claim lo while the set omits it (a
        # hole); a merge absorbs lo when the pattern holds its coset
        merge = not pattern.is_empty() and pattern == last
        if lo.is_finite():
            e = lo.value
            own = project(e)
            in_set = holds(2 * i - 1, own)
            claimed = merge and pattern.contains(own)
            if claimed and not in_set:
                merge = False  # lo is a hole
            elif in_set and not claimed:
                points.append(e)
        if merge:
            pieces[-1] = NearInterval(pieces[-1].lo, hi, pattern)
        elif not pattern.is_empty():
            pieces.append(NearInterval(lo, hi, pattern))
        last = pattern

    return Decomposition(tuple(points), tuple(pieces))


def is_small(d: Decomposition) -> bool:
    """True when the set is covered by finitely many cosets of the rational
    line (points are always coverable; a cofinite piece never is)."""
    return all(not p.cosets.cofinite for p in d.pieces)


def generic_type_contains(
    f: Formula, v: Variable, assignment: Assignment | None = None
) -> bool:
    """Membership of a unary quotient-sort formula in the generic type, the
    type of a coset outside every point the parameters name: true exactly
    when the pullback along the quotient map is large.  With the parameters
    put in, every atom the eliminated formula reads is an equation naming
    one coset for v, so at a generic coset every atom fails."""
    if v.sort is not Sort.QUOTIENT:
        raise ArityError(f"{v} is not a quotient-sort variable")
    return run(qe(ground(f, {v}, assignment), TheoryMode.POVS), lambda atom, at: False, None)
