"""Canonical codes for definable unary sets and piecewise-linear functions.

A unary set is coded by its canonical decomposition: the points are its
near-frontier and the pieces, each carrying its endpoints and a finite
or cofinite set of cosets, are its near-interior.  Because the
decomposition is canonical, structural equality of codes coincides with
extensional equality of the coded sets, which strengthens the usual
finitely-many-codes notion to a single canonical datum.

A definable partial function with a piecewise-linear graph is coded by
its finite slope/intercept inventory: for every line that the graph
follows on an infinite locus, the (coset-pattern) domain on which it
does, plus the finitely many leftover graph points.  The domain and the
line pieces are decompositions, and the leftover points and the check
that no two pieces overlap come from one sweep over their memberships,
with no formula rebuilt from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomposition import Decomposition, decompose, sweep
from .errors import (
    ArityError,
    InfiniteResidualError,
    InternalError,
    NotFunctionalError,
)
from .evaluate import Assignment, atoms, eval_formula
from .formulas import (
    AtomKind,
    Exists,
    Forall,
    Formula,
    TheoryMode,
    all_variables,
    fresh_variable,
    ground,
    home_eq,
    make_and,
    make_not,
    make_or,
    substitute,
)
from .model import ModelElement
from .qe import decide_sentence, qe
from .terms import HomeTerm, Sort, Variable


UnarySetCode = Decomposition  # a set code is its canonical decomposition


def code_unary_set(
    f: Formula, v: Variable, assignment: Assignment | None = None
) -> Decomposition:
    """The canonical code of a unary set: its canonical decomposition, whose
    points are the near-frontier and whose pieces are the near-interior."""
    return decompose(f, v, assignment)


def codes_equal(c1: Decomposition, c2: Decomposition) -> bool:
    """Structural equality; by canonicality this is extensional equality."""
    return c1 == c2


def set_code_json(code: Decomposition) -> dict:
    """A set code in JSON, with its points listed as the "frontier"."""
    data = code.to_json()
    return {"frontier": data["points"], "pieces": data["pieces"]}


@dataclass(frozen=True)
class FunctionPiece:
    slope: Fraction
    intercept: ModelElement
    domain: Decomposition

    def to_json(self):
        return {
            "slope": str(self.slope),
            "intercept": self.intercept.to_json(),
            "domain": set_code_json(self.domain),
        }


@dataclass(frozen=True)
class FunctionCode:
    """Slope/intercept inventory of a piecewise-linear definable function."""

    exceptional: tuple[tuple[ModelElement, ModelElement], ...]
    pieces: tuple[FunctionPiece, ...]

    def to_json(self):
        return {
            "exceptional": [[a.to_json(), b.to_json()] for a, b in self.exceptional],
            "pieces": [p.to_json() for p in self.pieces],
        }

    def value_at(self, x: ModelElement) -> ModelElement | None:
        """Reconstruct the function from its code."""
        for a, b in self.exceptional:
            if a == x:
                return b
        for piece in self.pieces:
            if piece.domain.contains(x):
                return x.scale(piece.slope) + piece.intercept
        return None


def _check_functional(g: Formula, x: Variable, y: Variable) -> None:
    y2 = fresh_variable(Sort.HOME, all_variables(g) | {x, y})
    both = make_and([g, substitute(g, y, HomeTerm.from_variable(y2))])
    same = home_eq(HomeTerm.from_variable(y) - HomeTerm.from_variable(y2))
    sentence = Forall(x, Forall(y, Forall(y2, make_or([make_not(both), same]))))
    if not decide_sentence(sentence, TheoryMode.POVS):
        raise NotFunctionalError("the relation maps some point to two values")


def _line_candidates(g: Formula, x: Variable, y: Variable):
    """Slope/intercept pairs read from the order atoms on y.

    A conjunction of strict order and coset literals never pins y to a
    single value, so every graph point of a functional relation lies
    where some order atom on y vanishes: an equation, or a strict
    inequality whose negation allows equality.  The roots of all of them
    are a superset of the lines the graph follows; the graph has no open
    piece on an extra line, and `code_function` skips it.
    """
    candidates: set[tuple[Fraction, ModelElement]] = set()
    for atom in atoms(g):
        if atom.kind in (AtomKind.HOME_EQ, AtomKind.HOME_LT) and atom.payload.coeff(y) != 0:
            line = atom.payload.root(y)
            candidates.add((line.coeff(x), line.constant))
    # distinct candidates have distinct keys, so the set's order never shows
    return sorted(candidates, key=lambda sc: (sc[0], tuple(sorted(sc[1].coeffs.items()))))


def code_function(
    f: Formula,
    x: Variable,
    y: Variable,
    assignment: Assignment | None = None,
) -> FunctionCode:
    """Code a binary formula that is functional from x to y.

    Slopes are extracted syntactically from the eliminated form; each
    candidate line is intersected with the graph and its matching locus is
    reduced to open coset patterns.  One sweep over the domain and those
    pieces then finds what the pieces miss, a finite set of explicit graph
    points (a non-finite residue would contradict the decomposition shape
    of definable graphs and raises), and checks at each of its samples
    that no two pieces overlap.
    """
    if x.sort is not Sort.HOME or y.sort is not Sort.HOME:
        raise ArityError("function coding needs two home-sort variables")
    if x == y:
        raise ArityError("argument and value variables must differ")
    g = qe(ground(f, {x, y}, assignment), TheoryMode.POVS)
    _check_functional(g, x, y)

    domain = decompose(Exists(y, g), x)
    lines = _line_candidates(g, x, y)
    pieces: list[FunctionPiece] = []
    for slope, intercept in lines:
        line = HomeTerm.from_variable(x).scale(slope) + HomeTerm.from_element(intercept)
        on_line = substitute(g, y, line)
        d = decompose(on_line, x)
        if not d.pieces:
            continue
        # the pieces are open and no piece holds another's endpoint, so
        # dropping the listed points leaves a canonical decomposition
        pieces.append(FunctionPiece(slope, intercept, Decomposition((), d.pieces)))

    def uncovered(m: ModelElement) -> bool:
        held = [p for p in pieces if p.domain.contains(m)]
        if len(held) > 1:
            raise InternalError("function piece domains overlap")
        return not held and domain.contains(m)

    # two open near-intervals that share a point share an open near-interval,
    # so an overlap shows at one of the sweep's samples
    rd = sweep(uncovered, [domain, *(p.domain for p in pieces)])
    if rd.pieces:
        raise InfiniteResidualError(
            "candidate lines leave an infinite part of the domain uncovered"
        )
    exceptional = tuple((e, _function_value(g, x, y, e, lines)) for e in rd.points)
    return FunctionCode(exceptional, tuple(pieces))


def _function_value(
    g: Formula, x: Variable, y: Variable, at: ModelElement, lines
) -> ModelElement:
    """The graph's value at a point, read off the first line through it;
    the graph is functional, so no other line can give another value."""
    for slope, intercept in lines:
        candidate = at.scale(slope) + intercept
        if eval_formula(g, {x: at, y: candidate}):
            return candidate
    raise InternalError(f"no candidate line passes through the graph at {at}")
