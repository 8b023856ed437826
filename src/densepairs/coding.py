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
does, plus the finitely many leftover graph points.  Where the graph
follows each candidate line is a decomposition, its line set, swept from
the graph's own sign table with the line put into each atom.  Whether a
graph point lies off every line is first read off the graph's disjuncts:
all points of one with a conjunct y = L(x), for a listed line L, lie on
L, so dropping it is exact.  A sentence asks the question of the
disjuncts left, and none is built when none is left.  If no point lies
off every line, the domain is the union of the line sets.  Two line sets
share infinitely many points exactly when a piece of one meets a piece
of the other, so the pieces and the listed points of the line sets
decide functionality and give the leftover points, with no formula
rebuilt from them and no domain decomposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .decomposition import Decomposition, _sweep, decompose, sign_table
from .errors import ArityError, InternalError, NotFunctionalError
from .evaluate import Assignment, atoms
from .formulas import (
    _HOME_EQ,
    KINDS,
    And,
    Atom,
    Exists,
    Formula,
    Or,
    TheoryMode,
    ground,
    home_eq,
    make_and,
    make_not,
    make_or,
    substitute_atom,
)
from .model import ModelElement
from .qe import decide_sentence, qe
from .terms import HomeTerm, Sort, Variable


UnarySetCode = Decomposition  # a set code is its canonical decomposition
NOT_FUNCTIONAL = "the relation maps some point to two values"


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
    order = KINDS[Sort.HOME]
    for atom in atoms(g):
        if atom.kind in order and atom.payload.coeff_sign(y):
            line = atom.payload.root(y)
            candidates.add((line.coeff(x), line.constant))
    # distinct candidates have distinct keys, so the set's order never shows
    return sorted(candidates, key=lambda sc: (sc[0], tuple(sorted(sc[1].coeffs.items()))))


def _pinned(d: Formula, y: Variable, terms: list) -> bool:
    """Whether a conjunct of d is an equation putting y on a listed line term:
    then every point of d lies on that line."""
    for c in d.children if type(d) is And else (d,):
        if type(c) is Atom and c.kind is _HOME_EQ and c.payload.coeff_sign(y):
            if c.payload.root(y) in terms:
                return True
    return False


def code_function(
    f: Formula,
    x: Variable,
    y: Variable,
    assignment: Assignment | None = None,
) -> FunctionCode:
    """Code a binary formula that is functional from x to y.

    Slopes are extracted syntactically from the eliminated form, and each
    candidate line L_i is intersected with the graph: its line set A_i is
    where the graph follows it.  The relation is functional exactly when
    (a) no graph point lies off every line (such a point lies in an open
    y-cell of graph points) and (b) no point is held by two line sets with
    different line values.  Then the domain is the union of the line sets.
    Two distinct lines agree at one point at most, so (b) fails when a
    piece of A_i meets a piece of A_j, and otherwise can fail only at a
    listed point of some A_i, where the values are compared exactly.  The
    listed points that no open piece holds are the leftover graph points.
    """
    if x.sort is not Sort.HOME or y.sort is not Sort.HOME:
        raise ArityError("function coding needs two home-sort variables")
    if x == y:
        raise ArityError("argument and value variables must differ")
    g = qe(ground(f, {x, y}, assignment), TheoryMode.POVS)
    lines = _line_candidates(g, x, y)
    terms = [HomeTerm.from_variable(x).scale(s) + HomeTerm.from_element(c) for s, c in lines]
    # check (a): a pinned disjunct has no point off every line
    rest = [d for d in (g.children if type(g) is Or else (g,)) if not _pinned(d, y, terms)]
    if rest:
        off_lines = make_and([make_or(rest), *(make_not(home_eq(HomeTerm.from_variable(y) - t)) for t in terms)])
        if decide_sentence(Exists(x, Exists(y, off_lines)), TheoryMode.POVS):
            raise NotFunctionalError(NOT_FUNCTIONAL)
    line_sets = [_sweep(*sign_table(g, x, partial(substitute_atom, v=y, t=t))({})) for t in terms]
    # check (b) on the pieces: two that meet share infinitely many points
    for i, (line, d) in enumerate(zip(lines, line_sets)):
        for other, d2 in zip(lines[i + 1:], line_sets[i + 1:]):
            if any(p.meets(q) for p in d.pieces for q in d2.pieces):
                if line == other:
                    raise InternalError("function piece domains overlap")
                raise NotFunctionalError(NOT_FUNCTIONAL)
    # the pieces are open and no piece holds another's endpoint, so
    # dropping the listed points leaves a canonical decomposition
    pieces = [FunctionPiece(s, c, Decomposition((), d.pieces))
              for (s, c), d in zip(lines, line_sets) if d.pieces]
    leftover = []  # check (b) at the listed points, and the ones no piece holds
    for m in sorted({m for d in line_sets for m in d.points}):
        values = {m.scale(s) + c for (s, c), d in zip(lines, line_sets) if d.contains(m)}
        if len(values) > 1:
            raise NotFunctionalError(NOT_FUNCTIONAL)
        if not any(p.domain.contains(m) for p in pieces):
            leftover.append((m, values.pop()))
    return FunctionCode(tuple(leftover), tuple(pieces))
