"""Witness-search satisfiability oracles over the reference model.

These decide single-variable conjunctions by direct construction and are
the package's independent check on the symbolic eliminator: equalities
are solved by substitution, order literals cut the line (or the ordered
quotient) down to an open interval, and membership literals pin or
exclude finitely many cosets.  Density does the rest -- the rational
line and every one of its cosets is dense in the model, and only
finitely many points or cosets are ever excluded, so a witness can be
found whenever one exists.  Every returned witness is re-checked by
evaluation before it is handed back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .errors import InternalError, ModeError, SortError
from .evaluate import Assignment, eval_formula
from .formulas import Atom, AtomKind, Formula, Not, ground, literal_parts
from .model import (
    ModelElement,
    QuotientElement,
    compare,
    lex_compare,
    project,
    rational_above,
    rational_below,
    rational_between,
    section,
)
from .terms import QuotientTerm, Sort, Variable


class _Bound:
    """A strict or weak endpoint for an interval intersection."""

    __slots__ = ("value", "strict")

    def __init__(self, value, strict: bool):
        self.value = value
        self.strict = strict


def _tighten_lower(current: _Bound | None, new: _Bound, cmp) -> _Bound:
    if current is None:
        return new
    c = cmp(new.value, current.value)
    if c > 0 or (c == 0 and new.strict and not current.strict):
        return new
    return current


def _tighten_upper(current: _Bound | None, new: _Bound, cmp) -> _Bound:
    if current is None:
        return new
    c = cmp(new.value, current.value)
    if c < 0 or (c == 0 and new.strict and not current.strict):
        return new
    return current


def _verify(literals: Sequence[Formula], binding: Assignment) -> bool:
    return all(eval_formula(lit, binding) for lit in literals)


# ---------------------------------------------------------------------------
# Quotient-sort search
# ---------------------------------------------------------------------------

_QUNIT = QuotientElement({2: Fraction(1)})


def _quotient_candidates(
    lower: _Bound | None, upper: _Bound | None, count: int
) -> Iterator[QuotientElement]:
    """Distinct candidates inside an open interval of the ordered quotient.

    The order is dense and has no endpoints, so midpoints and unit
    shifts always stay strictly inside.
    """
    if lower is not None and upper is not None:
        lo, hi = lower.value, upper.value
        for _ in range(count):
            mid = (lo + hi).scale(Fraction(1, 2))
            yield mid
            hi = mid
    elif lower is not None:
        for k in range(1, count + 1):
            yield lower.value + _QUNIT.scale(k)
    elif upper is not None:
        for k in range(1, count + 1):
            yield upper.value - _QUNIT.scale(k)
    else:
        for k in range(count):
            yield _QUNIT.scale(k)


def _solve_quotient(
    literals: Sequence[Formula], v: Variable, ordered: bool
) -> tuple[bool, QuotientElement | None]:
    """Search for a quotient value of v satisfying ground unary literals."""
    residue: list[Formula] = []
    vlits: list[tuple[Atom, bool, Fraction]] = []
    for lit in literals:
        atom, positive = literal_parts(lit)
        if atom.kind in (AtomKind.HOME_EQ, AtomKind.HOME_LT, AtomKind.IN_Q):
            residue.append(lit)  # ground after substitution; v cannot occur
            continue
        if atom.kind is AtomKind.QUOT_PREC and not ordered:
            raise ModeError("prec literals require the ordered quotient oracle")
        coeff = atom.payload.coeff(v)
        if coeff == 0:
            residue.append(lit)
        else:
            vlits.append((atom, positive, coeff))

    if not _verify(residue, {}):
        return False, None

    # an equation pins the value
    for atom, positive, coeff in vlits:
        if atom.kind is AtomKind.QUOT_EQ and positive:
            rest = atom.payload.without(v)
            value = rest.evaluate({}).scale(-1 / coeff)
            ok = _verify(literals, {v: value})
            return (True, value) if ok else (False, None)

    lower: _Bound | None = None
    upper: _Bound | None = None
    excluded: set[QuotientElement] = set()
    for atom, positive, coeff in vlits:
        point = atom.payload.without(v).evaluate({}).scale(-1 / coeff)
        if atom.kind is AtomKind.QUOT_EQ:
            excluded.add(point)  # negated equation
        elif positive:  # coeff * v + rest prec 0
            if coeff > 0:
                upper = _tighten_upper(upper, _Bound(point, True), lex_compare)
            else:
                lower = _tighten_lower(lower, _Bound(point, True), lex_compare)
        else:  # not (coeff * v + rest prec 0)  <=>  weak bound the other way
            if coeff > 0:
                lower = _tighten_lower(lower, _Bound(point, False), lex_compare)
            else:
                upper = _tighten_upper(upper, _Bound(point, False), lex_compare)

    if lower is not None and upper is not None:
        c = lex_compare(lower.value, upper.value)
        if c > 0:
            return False, None
        if c == 0:
            if lower.strict or upper.strict:
                return False, None
            value = lower.value
            return (True, value) if _verify(literals, {v: value}) else (False, None)

    for candidate in _quotient_candidates(lower, upper, len(excluded) + 1):
        if candidate not in excluded:
            if not _verify(literals, {v: candidate}):
                raise InternalError("quotient witness failed re-evaluation")
            return True, candidate
    raise InternalError("quotient candidate enumeration exhausted")


def oracle_exists_quotient(
    literals: Sequence[Formula],
    v: Variable,
    assignment: Assignment | None = None,
    ordered: bool = False,
) -> tuple[bool, QuotientElement | None]:
    """Decide whether some quotient value of v satisfies all literals.

    In unordered mode any finite set of disequations is satisfiable in
    the infinite quotient space; ordered mode additionally intersects
    the strict/weak bounds of the dense quotient order.
    """
    if v.sort is not Sort.QUOTIENT:
        raise SortError(f"{v} is not a quotient-sort variable")
    grounded = []
    for lit in literals:
        literal_parts(lit)  # reject anything that is not a literal
        grounded.append(ground(lit, {v}, assignment))
    return _solve_quotient(grounded, v, ordered)


# ---------------------------------------------------------------------------
# Home-sort search
# ---------------------------------------------------------------------------


def _home_candidates(
    lower: _Bound | None, upper: _Bound | None, base: ModelElement, count: int
) -> Iterator[ModelElement]:
    """Distinct elements of the coset base + Q inside an open home interval."""
    shift_lo = None if lower is None else lower.value - base
    shift_hi = None if upper is None else upper.value - base
    if shift_lo is not None and shift_hi is not None:
        hi_bound = shift_hi
        for _ in range(count):
            q = rational_between(shift_lo, hi_bound)
            yield base + ModelElement.from_rational(q)
            hi_bound = ModelElement.from_rational(q)
    elif shift_lo is not None:
        q = rational_above(shift_lo)
        for k in range(count):
            yield base + ModelElement.from_rational(q + k)
    elif shift_hi is not None:
        q = rational_below(shift_hi)
        for k in range(count):
            yield base + ModelElement.from_rational(q - k)
    else:
        for k in range(count):
            yield base + ModelElement.from_rational(k)


def _solve_home(
    literals: Sequence[Formula], v: Variable
) -> tuple[bool, ModelElement | None]:
    residue: list[Formula] = []
    vlits: list[tuple[Atom, bool, Fraction]] = []
    for lit in literals:
        atom, positive = literal_parts(lit)
        coeff = atom.payload.coeff(v)
        if coeff == 0:
            residue.append(lit)
        else:
            vlits.append((atom, positive, coeff))

    if not _verify(residue, {}):
        return False, None

    for atom, positive, coeff in vlits:
        if atom.kind is AtomKind.HOME_EQ and positive:
            rest = atom.payload.without(v)
            value = rest.evaluate({}).scale(-1 / coeff)
            ok = _verify(literals, {v: value})
            return (True, value) if ok else (False, None)

    lower: _Bound | None = None
    upper: _Bound | None = None
    excluded_points: set[ModelElement] = set()
    # constraints on the coset of v, phrased over a stand-in quotient variable
    w = Variable(Sort.QUOTIENT, 0)
    wlits: list[Formula] = []
    ordered = False
    for atom, positive, coeff in vlits:
        if atom.kind is AtomKind.HOME_EQ:
            excluded_points.add(atom.payload.without(v).evaluate({}).scale(-1 / coeff))
        elif atom.kind is AtomKind.HOME_LT:
            point = atom.payload.without(v).evaluate({}).scale(-1 / coeff)
            if positive:
                if coeff > 0:
                    upper = _tighten_upper(upper, _Bound(point, True), compare)
                else:
                    lower = _tighten_lower(lower, _Bound(point, True), compare)
            else:
                if coeff > 0:
                    lower = _tighten_lower(lower, _Bound(point, False), compare)
                else:
                    upper = _tighten_upper(upper, _Bound(point, False), compare)
        else:
            # membership/coset literal: rewrite over the stand-in w = pi(v)
            watom = _coset_literal_over(atom, v, coeff, w)
            if atom.kind is AtomKind.QUOT_PREC:
                ordered = True
            wlits.append(watom if positive else Not(watom))

    if lower is not None and upper is not None:
        c = compare(lower.value, upper.value)
        if c > 0:
            return False, None
        if c == 0:
            if lower.strict or upper.strict:
                return False, None
            value = lower.value
            return (True, value) if _verify(literals, {v: value}) else (False, None)

    ok, wvalue = _solve_quotient(wlits, w, ordered) if wlits else (True, QuotientElement())
    if not ok:
        return False, None
    base = section(wvalue)

    bad_in_coset = {p for p in excluded_points if project(p) == wvalue}
    for candidate in _home_candidates(lower, upper, base, len(bad_in_coset) + 1):
        if candidate not in bad_in_coset:
            if not _verify(literals, {v: candidate}):
                raise InternalError("home witness failed re-evaluation")
            return True, candidate
    raise InternalError("home candidate enumeration exhausted")


def _coset_literal_over(atom: Atom, v: Variable, coeff: Fraction, w: Variable) -> Atom:
    """Rewrite a membership/quotient literal on v as a literal on w = pi(v)."""
    from .formulas import quot_eq, quot_prec

    if atom.kind is AtomKind.IN_Q:
        rest = atom.payload.without(v)  # coeff*v + rest in Q  <=>  coeff*w + pi(rest) = 0
        s = QuotientTerm({w: coeff}) + QuotientTerm.project_term(rest)
        return quot_eq(s)
    rest_term = atom.payload.without(v)
    s = QuotientTerm({w: coeff}) + rest_term
    return quot_eq(s) if atom.kind is AtomKind.QUOT_EQ else quot_prec(s)


def oracle_exists_home(
    literals: Sequence[Formula],
    v: Variable,
    assignment: Assignment | None = None,
) -> tuple[bool, ModelElement | None]:
    """Decide whether some home value of v satisfies all literals.

    Order literals intersect to an interval, membership and quotient
    literals constrain the coset of v, and since every coset is dense
    any nonempty open interval meets the required coset in infinitely
    many points, of which only finitely many are ever excluded.
    """
    if v.sort is not Sort.HOME:
        raise SortError(f"{v} is not a home-sort variable")
    grounded = []
    for lit in literals:
        literal_parts(lit)  # reject anything that is not a literal
        grounded.append(ground(lit, {v}, assignment))
    return _solve_home(grounded, v)
