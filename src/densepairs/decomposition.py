"""Canonical decomposition of unary definable subsets of the home sort.

Every such set is a finite set of points plus finitely many disjoint
pieces of the form (a, b) intersected with the preimage of a finite or
cofinite set of cosets.  The algorithm: eliminate quantifiers, pass to
disjunctive normal form, read off the finitely many endpoint candidates
from order and equality literals, and work cell by cell -- on an open
cell every order literal has a constant truth value (sampled at a
rational inside) while the membership literals pin or exclude concrete
cosets, so each conjunct contributes a finite or cofinite coset set and
the cell's pattern is their union.  Adjacent cells with the same
pattern are then coalesced whenever that preserves the denoted set,
which makes the output canonical: equal sets yield equal decompositions
no matter which formula defined them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, Sequence

from .errors import ArityError, ModeError
from .evaluate import Assignment, eval_formula
from .formulas import (
    FALSE,
    Atom,
    AtomKind,
    Formula,
    TheoryMode,
    all_atoms,
    bound_variables,
    dnf_clauses,
    free_variables,
    ground,
    home_eq,
    home_lt,
    is_quantifier_free,
    literal_parts,
    make_and,
    make_not,
    make_or,
    quot_eq,
    simplify,
    substitute,
)
from .model import (
    ModelElement,
    QuotientElement,
    compare,
    lex_compare,
    project,
    rational_above,
    rational_below,
    rational_between,
)
from .qe import qe
from .terms import HomeTerm, QuotientTerm, Sort, Variable


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
        if self.side < 0:
            return "-inf"
        if self.side > 0:
            return "+inf"
        return self.value.to_json()


@dataclass(frozen=True)
class CosetSet:
    """A finite or cofinite set of cosets, named by canonical representatives."""

    cofinite: bool
    members: frozenset[QuotientElement]

    @classmethod
    def none(cls) -> "CosetSet":
        return cls(False, frozenset())

    @classmethod
    def all(cls) -> "CosetSet":
        return cls(True, frozenset())

    @classmethod
    def just(cls, w: QuotientElement) -> "CosetSet":
        return cls(False, frozenset([w]))

    @classmethod
    def excluding(cls, ws: Iterable[QuotientElement]) -> "CosetSet":
        return cls(True, frozenset(ws))

    def is_empty(self) -> bool:
        return not self.cofinite and not self.members

    def contains(self, w: QuotientElement) -> bool:
        return (w in self.members) != self.cofinite

    def union(self, other: "CosetSet") -> "CosetSet":
        if not self.cofinite and not other.cofinite:
            return CosetSet(False, self.members | other.members)
        if self.cofinite and other.cofinite:
            return CosetSet(True, self.members & other.members)
        fin, cof = (self, other) if other.cofinite else (other, self)
        return CosetSet(True, cof.members - fin.members)

    def complement(self) -> "CosetSet":
        return CosetSet(not self.cofinite, self.members)

    def intersection(self, other: "CosetSet") -> "CosetSet":
        return self.complement().union(other.complement()).complement()

    def sorted_members(self) -> tuple[QuotientElement, ...]:
        return tuple(sorted(self.members, key=cmp_to_key(lex_compare)))

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

    def contains(self, m: ModelElement) -> bool:
        e = Endpoint.at(m)
        return (
            self.lo.compare(e) < 0
            and e.compare(self.hi) < 0
            and self.cosets.contains(project(m))
        )

    def is_large(self) -> bool:
        return self.cosets.cofinite

    def formula(self, v: Variable) -> Formula:
        """A defining formula over the single home variable v."""
        parts: list[Formula] = []
        x = HomeTerm.from_variable(v)
        if self.lo.is_finite():
            parts.append(home_lt(HomeTerm.from_element(self.lo.value) - x))
        if self.hi.is_finite():
            parts.append(home_lt(x - HomeTerm.from_element(self.hi.value)))
        pulls = [
            quot_eq(QuotientTerm.project_term(x) - QuotientTerm.from_element(w))
            for w in self.sorted_cosets()
        ]
        if self.cosets.cofinite:
            parts.extend(make_not(p) for p in pulls)
        else:
            parts.append(make_or(pulls) if pulls else FALSE)
        return make_and(parts)

    def sorted_cosets(self) -> tuple[QuotientElement, ...]:
        return self.cosets.sorted_members()

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
    """

    points: tuple[ModelElement, ...]
    pieces: tuple[NearInterval, ...]

    def contains(self, m: ModelElement) -> bool:
        return m in self.points or any(p.contains(m) for p in self.pieces)

    def is_empty(self) -> bool:
        return not self.points and not self.pieces

    def formula(self, v: Variable) -> Formula:
        x = HomeTerm.from_variable(v)
        parts: list[Formula] = [
            home_eq(x - HomeTerm.from_element(p)) for p in self.points
        ]
        parts.extend(piece.formula(v) for piece in self.pieces)
        return make_or(parts) if parts else FALSE

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


@dataclass(frozen=True)
class _CellConjunct:
    """One DNF conjunct, preprocessed for per-cell evaluation."""

    order_literals: tuple[Formula, ...]
    required: tuple[QuotientElement, ...]
    excluded: tuple[QuotientElement, ...]

    def coset_set_on_cell(self, sample: ModelElement, v: Variable) -> CosetSet:
        for lit in self.order_literals:
            if not eval_formula(lit, {v: sample}):
                return CosetSet.none()
        if self.required:
            first = self.required[0]
            if any(w != first for w in self.required[1:]):
                return CosetSet.none()
            if first in self.excluded:
                return CosetSet.none()
            return CosetSet.just(first)
        return CosetSet.excluding(self.excluded)


def _coset_of_literal(atom: Atom, v: Variable) -> QuotientElement:
    """The coset that a membership/quotient literal pins pi(v) to."""
    if atom.kind is AtomKind.IN_Q:
        coeff = atom.payload.coeff(v)
        rest = atom.payload.without(v).evaluate({})
        return project(rest).scale(-1 / coeff)
    coeff = atom.payload.coeff(v)
    rest = atom.payload.without(v).evaluate({})
    return rest.scale(-1 / coeff)


def decompose(
    f: Formula, v: Variable, assignment: Assignment | None = None
) -> Decomposition:
    """The canonical decomposition of the set defined by f in the variable v."""
    if v.sort is not Sort.HOME:
        raise ArityError(f"{v} is not a home-sort variable")
    g = ground(f, {v}, assignment)
    for atom in all_atoms(g):
        if atom.kind is AtomKind.QUOT_PREC:
            raise ModeError("sets with quotient-order atoms do not decompose into near-intervals")
    if not is_quantifier_free(g):
        g = qe(g, TheoryMode.POVS)
    g = simplify(g)
    # a formula without v denotes the empty set or the whole line
    if v not in free_variables(g):
        if eval_formula(g, {}):
            return Decomposition(
                (), (NearInterval(Endpoint.neg_inf(), Endpoint.pos_inf(), CosetSet.all()),)
            )
        return Decomposition((), ())

    clauses = dnf_clauses(g)

    endpoints: list[ModelElement] = []
    seen: set[ModelElement] = set()
    conjuncts: list[_CellConjunct] = []
    for clause in clauses:
        order_lits: list[Formula] = []
        required: list[QuotientElement] = []
        excluded: list[QuotientElement] = []
        for lit in clause:
            atom, positive = literal_parts(lit)
            coeff = atom.payload.coeff(v)
            if atom.kind in (AtomKind.HOME_EQ, AtomKind.HOME_LT):
                order_lits.append(lit)
                if coeff != 0:
                    point = atom.payload.without(v).evaluate({}).scale(-1 / coeff)
                    if point not in seen:
                        seen.add(point)
                        endpoints.append(point)
            elif coeff == 0:
                order_lits.append(lit)  # ground membership literal
            else:
                coset = _coset_of_literal(atom, v)
                (required if positive else excluded).append(coset)
        conjuncts.append(
            _CellConjunct(tuple(order_lits), tuple(required), tuple(excluded))
        )

    endpoints.sort(key=cmp_to_key(compare))

    points = [e for e in endpoints if eval_formula(g, {v: e})]

    raw_pieces: list[NearInterval] = []
    bounds: list[Endpoint] = (
        [Endpoint.neg_inf()] + [Endpoint.at(e) for e in endpoints] + [Endpoint.pos_inf()]
    )
    for lo, hi in zip(bounds, bounds[1:]):
        sample = _sample_inside(lo, hi)
        pattern = CosetSet.none()
        for conj in conjuncts:
            pattern = pattern.union(conj.coset_set_on_cell(sample, v))
            if pattern.cofinite and not pattern.members:
                break
        if not pattern.is_empty():
            raw_pieces.append(NearInterval(lo, hi, pattern))

    return _canonicalize(points, raw_pieces)


def _sample_inside(lo: Endpoint, hi: Endpoint) -> ModelElement:
    if lo.is_finite() and hi.is_finite():
        return ModelElement.from_rational(rational_between(lo.value, hi.value))
    if lo.is_finite():
        return ModelElement.from_rational(rational_above(lo.value))
    if hi.is_finite():
        return ModelElement.from_rational(rational_below(hi.value))
    return ModelElement()


def _canonicalize(
    points: Sequence[ModelElement], pieces: Sequence[NearInterval]
) -> Decomposition:
    """Coalesce same-pattern neighbours; absorb covered boundary points.

    Merging across a boundary point e is sound unless the merged piece
    would claim e while the set omits it (e is then a genuine hole); a
    boundary member whose coset lies in the pattern is absorbed by the
    merged piece, and one outside the pattern stays a listed point.
    """
    remaining = set(points)
    merged: list[NearInterval] = []
    for piece in pieces:
        if merged:
            last = merged[-1]
            if (
                last.hi.is_finite()
                and last.hi == piece.lo
                and last.cosets == piece.cosets
            ):
                e = last.hi.value
                in_set = e in remaining
                in_pattern = piece.cosets.contains(project(e))
                if not (in_pattern and not in_set):
                    if in_pattern:
                        remaining.discard(e)
                    merged[-1] = NearInterval(last.lo, piece.hi, last.cosets)
                    continue
        merged.append(piece)

    ordered_points = sorted(remaining, key=cmp_to_key(compare))
    return Decomposition(tuple(ordered_points), tuple(merged))


def is_small(d: Decomposition) -> bool:
    """True when the set is covered by finitely many cosets of the rational
    line (points are always coverable; a cofinite piece never is)."""
    return all(not p.cosets.cofinite for p in d.pieces)


def generic_type_contains(
    f: Formula, v: Variable, assignment: Assignment | None = None
) -> bool:
    """Membership of a unary quotient-sort formula in the generic type:
    true exactly when the pullback along the quotient map is large."""
    if v.sort is not Sort.QUOTIENT:
        raise ArityError(f"{v} is not a quotient-sort variable")
    for atom in all_atoms(f):
        if atom.kind is AtomKind.QUOT_PREC:
            raise ModeError("the generic type lives in the unordered quotient")
    g = ground(f, {v}, assignment)
    home_indices = [
        x.index
        for x in free_variables(g) | bound_variables(g)
        if x.sort is Sort.HOME
    ]
    x = Variable(Sort.HOME, max(home_indices, default=-1) + 1)
    pullback = substitute(g, v, QuotientTerm.project_term(HomeTerm.from_variable(x)))
    return not is_small(decompose(pullback, x))
