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
does, plus the finitely many leftover graph points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .decomposition import Decomposition, NearInterval, decompose
from .errors import (
    ArityError,
    InfiniteResidualError,
    InternalError,
    NotFunctionalError,
)
from .evaluate import Assignment, eval_formula
from .formulas import (
    AtomKind,
    Exists,
    Forall,
    Formula,
    TheoryMode,
    all_atoms,
    bound_variables,
    dnf_clauses,
    free_variables,
    ground,
    home_eq,
    literal_parts,
    make_and,
    make_not,
    make_or,
    substitute,
)
from .model import ModelElement, compare
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
    taken = {v.index for v in free_variables(g) | bound_variables(g) if v.sort is Sort.HOME}
    taken |= {x.index, y.index}
    y2 = Variable(Sort.HOME, max(taken) + 1)
    both = make_and([g, substitute(g, y, HomeTerm.from_variable(y2))])
    same = home_eq(HomeTerm.from_variable(y) - HomeTerm.from_variable(y2))
    sentence = Forall(x, Forall(y, Forall(y2, make_or([make_not(both), same]))))
    if not decide_sentence(sentence, TheoryMode.POVS):
        raise NotFunctionalError("the relation maps some point to two values")


def _line_candidates(g: Formula, x: Variable, y: Variable):
    """Slope/intercept pairs read from the equality literals linking y to x.

    A conjunction of strict order and coset literals never pins y to a
    single value, so every graph point of a functional relation comes
    from an equation, and the equations of the eliminated form list
    every line the graph can follow.
    """
    candidates = []
    seen = set()
    for clause in dnf_clauses(g):
        for lit in clause:
            atom, positive = literal_parts(lit)
            if not positive or atom.kind is not AtomKind.HOME_EQ:
                continue  # only an equation pins y; a disequation pins nothing
            b = atom.payload.coeff(y)
            if b == 0:
                continue
            a = atom.payload.coeff(x)
            const = atom.payload.without(x).without(y).constant
            slope = -a / b
            intercept = const.scale(-1 / b)
            key = (slope, intercept)
            if key not in seen:
                seen.add(key)
                candidates.append(key)
    candidates.sort(key=lambda sc: (sc[0], tuple(sorted(sc[1].coeffs.items()))))
    return candidates


def code_function(
    f: Formula,
    x: Variable,
    y: Variable,
    assignment: Assignment | None = None,
) -> FunctionCode:
    """Code a binary formula that is functional from x to y.

    Slopes are extracted syntactically from the eliminated form; each
    candidate line is intersected with the graph, its matching locus is
    reduced to open coset patterns, and whatever those loci miss is a
    finite set of explicit graph points (a non-finite residue would
    contradict the decomposition shape of definable graphs and raises).
    """
    if x.sort is not Sort.HOME or y.sort is not Sort.HOME:
        raise ArityError("function coding needs two home-sort variables")
    if x == y:
        raise ArityError("argument and value variables must differ")
    g = ground(f, {x, y}, assignment)
    for atom in all_atoms(g):
        if atom.kind is AtomKind.QUOT_PREC:
            raise ArityError("function coding lives in the unordered pair theory")
    g = qe(g, TheoryMode.POVS)
    _check_functional(g, x, y)

    domain_formula = qe(Exists(y, g), TheoryMode.POVS)

    pieces: list[FunctionPiece] = []
    domain_formulas: list[Formula] = []
    for slope, intercept in _line_candidates(g, x, y):
        line = HomeTerm.from_variable(x).scale(slope) + HomeTerm.from_element(intercept)
        on_line = substitute(g, y, line)
        d = decompose(on_line, x)
        if not d.pieces:
            continue
        # the pieces are open and no piece holds another's endpoint, so
        # dropping the listed points leaves a canonical decomposition
        domain = Decomposition((), d.pieces)
        pieces.append(FunctionPiece(slope, intercept, domain))
        domain_formulas.append(domain.formula(x))

    _check_disjoint(pieces)

    covered = make_or(domain_formulas) if domain_formulas else None
    residual = (
        make_and([domain_formula, make_not(covered)]) if covered is not None else domain_formula
    )
    rd = decompose(residual, x)
    if rd.pieces:
        raise InfiniteResidualError(
            "candidate lines leave an infinite part of the domain uncovered"
        )
    exceptional = []
    for e in rd.points:
        value = _function_value(g, x, y, e, pieces)
        exceptional.append((e, value))
    exceptional.sort(key=cmp_to_key(lambda p, q: compare(p[0], q[0])))

    return FunctionCode(tuple(exceptional), tuple(pieces))


def _function_value(
    g: Formula, x: Variable, y: Variable, at: ModelElement, pieces
) -> ModelElement:
    tried = set()
    for piece in pieces:
        candidate = at.scale(piece.slope) + piece.intercept
        if candidate not in tried:
            tried.add(candidate)
            if eval_formula(g, {x: at, y: candidate}):
                return candidate
    # fall back to every line the eliminated form mentions
    for slope, intercept in _line_candidates(g, x, y):
        candidate = at.scale(slope) + intercept
        if candidate not in tried:
            tried.add(candidate)
            if eval_formula(g, {x: at, y: candidate}):
                return candidate
    raise InternalError(f"no candidate line passes through the graph at {at}")


def _check_disjoint(pieces: list[FunctionPiece]) -> None:
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            a, b = pieces[i], pieces[j]
            overlap = any(
                _intervals_overlap(pa, pb)
                and not pa.cosets.intersection(pb.cosets).is_empty()
                for pa in a.domain.pieces
                for pb in b.domain.pieces
            )
            if overlap:
                raise InternalError("function piece domains overlap")


def _intervals_overlap(a: NearInterval, b: NearInterval) -> bool:
    lo = a.lo if a.lo.compare(b.lo) >= 0 else b.lo
    hi = a.hi if a.hi.compare(b.hi) <= 0 else b.hi
    return lo.compare(hi) < 0
