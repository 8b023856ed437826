"""Witness-search satisfiability oracles over the reference model.

These decide single-variable conjunctions by direct construction and are
the package's independent check on the symbolic eliminator.  Each atom
is read once for each bound variable v, and the reading is kept on the
atom for every later assignment: an equation or order atom on v is
``coeff * (v - root)``, so under an assignment its root term names one
point, and an equation pins v there, a disequation excludes it, and
order literals cut the line (or the ordered quotient) down to an open
interval.  For a home-sort v, membership and quotient atoms constrain
only the coset of v; each is read as an atom on a stand-in for pi(v),
with its parameters left symbolic, and the same search solves those
first, under the same assignment.  A positive equation on v makes the
search one check of the point it names: the first in literal order has its
root evaluated, no other root is, and the caller's literals are read there.
Density does the rest -- the rational line and every one of its cosets
is dense in the model, and only finitely many points are ever excluded,
so one walk over an open interval of a dense order without endpoints
finds a witness of either sort whenever one exists; the home search walks
the rational shifts of its coset.  Every returned witness is re-checked by
evaluating the caller's literals before it is handed back.  A call reads
each literal's atom and reading once, into the parts that drive its
parameter check, its mode check and its search.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .errors import InternalError, ModeError, SortError
from .evaluate import Assignment, eval_formula
from .formulas import _QUOT_PREC, KINDS, Atom, Formula, Not, check_parameters, literal_parts, quotient_atom
from .model import (
    HALF,
    ModelElement,
    QuotientElement,
    compare,
    lex_compare,
    rational_above,
    rational_below,
    rational_between,
    section,
)
from .terms import Sort, Variable


class _Bound(NamedTuple):
    """A strict or weak endpoint for an interval intersection."""

    value: ModelElement | QuotientElement
    strict: bool


def _tighten(current: _Bound | None, new: _Bound, cmp, side: int) -> _Bound:
    """The tighter of two bounds on one side: +1 for upper, -1 for lower."""
    if current is None:
        return new
    c = cmp(new.value, current.value) * side
    if c < 0 or (c == 0 and new.strict and not current.strict):
        return new
    return current


def _holds(parts: list[tuple], binding: Assignment) -> bool:
    for part in parts:
        if not eval_formula(part[0], binding):
            return False
    return True


def _candidates(lo, hi, steps: tuple, count: int) -> Iterator:
    """`count` distinct points strictly inside the open interval (lo, hi) of a
    dense order without endpoints, an unbounded end given as None.  `steps` is
    the sort's (point between two ends, point above a lower end, point below
    an upper end, unit): between two ends each point lies between lo and the
    one before; from one end, or from 0, the walk steps away by the unit."""
    between, above, below, unit = steps
    if lo is not None and hi is not None:
        for _ in range(count):
            hi = between(lo, hi)
            yield hi
        return
    if hi is not None:
        point, unit = below(hi), -unit
    else:
        point = unit.scale(0) if lo is None else above(lo)
    for _ in range(count):
        yield point
        point = point + unit


_QUNIT = QuotientElement({2: 1})
# the quotient is walked by midpoints and shifts by pi(r2); the home search
# walks the rational shifts of its coset, so its points are rationals
_QUOTIENT_STEPS = (
    lambda lo, hi: (lo + hi).scale(HALF),
    lambda lo: lo + _QUNIT,
    lambda hi: hi - _QUNIT,
    _QUNIT,
)
_HOME_STEPS = (
    lambda lo, hi: ModelElement.from_rational(rational_between(lo, hi)),
    lambda lo: ModelElement.from_rational(rational_above(lo)),
    lambda hi: ModelElement.from_rational(rational_below(hi)),
    ModelElement.from_rational(1),
)


# the unknown coset pi(v) of a home-sort search, at an index that no parsed
# or fresh variable has, so the caller's assignment stays in force around it
_COSET = Variable(Sort.QUOTIENT, -1)


def _read(atom: Atom, v: Variable) -> tuple:
    """What the search for v needs of an atom, independent of the assignment:
    (v, the parameters in reporting order, the root of an equation or order
    atom on v, the side it bounds v from when positive (0 for an equation),
    for a membership or quotient atom on a home v the parts of the negated
    and the positive coset literal, as `_parts` makes them for the stand-in).
    Made on the first call for v and kept on the atom; another v reads it
    afresh."""
    reading = getattr(atom, "_reading", None)
    if reading is not None and reading[0] == v:
        return reading
    payload = atom.payload
    params = tuple(sorted(payload.variables() - {v}, key=Variable.sort_key))
    sign = payload.coeff_sign(v)
    root = side = coset = None
    if sign:
        eq_kind, order_kind = KINDS[v.sort]
        if atom.kind is eq_kind or atom.kind is order_kind:
            root = payload.root(v)
            # coeff * v + rest < 0 bounds v strictly, from above when coeff > 0
            side = 0 if atom.kind is eq_kind else sign
        else:
            # a membership or quotient literal on v: a literal on its coset
            watom = quotient_atom(atom, {v: _COSET})
            wreading = _read(watom, _COSET)
            coset = ((Not(watom), watom, False, wreading), (watom, watom, True, wreading))
    reading = (v, params, root, side, coset)
    object.__setattr__(atom, "_reading", reading)
    return reading


def _solve(
    parts: list[tuple], v: Variable, assignment: Assignment
) -> tuple[bool, ModelElement | QuotientElement | None]:
    """Search for a value of v satisfying the literals of parts (see `_parts`)
    whose parameters are bound."""
    for _, _, positive, (_, _, root, side, _) in parts:
        if positive and side == 0:
            # the first equation on v names the one candidate; no other root is read
            pinned = root.evaluate(assignment)
            return (True, pinned) if _holds(parts, {**assignment, v: pinned}) else (False, None)
    home = v.sort is Sort.HOME
    cmp = compare if home else lex_compare
    bounds: dict[int, _Bound | None] = {-1: None, 1: None}
    excluded = set()
    coset_parts: list[tuple] = []
    for lit, _, positive, (_, _, root, side, coset) in parts:
        if coset is not None:
            coset_parts.append(coset[positive])
            continue
        if root is None:
            if not eval_formula(lit, assignment):
                return False, None
            continue
        point = root.evaluate(assignment)
        if side:
            # a negated order literal bounds v weakly from the other side
            side = side if positive else -side
            bounds[side] = _tighten(bounds[side], _Bound(point, positive), cmp, side)
        else:  # a disequation: an equation on v returned above
            excluded.add(point)

    lower, upper = bounds[-1], bounds[1]
    if lower is not None and upper is not None:
        c = cmp(lower.value, upper.value)
        if c > 0 or (c == 0 and (lower.strict or upper.strict)):
            return False, None
        if c == 0:
            pinned = lower.value
            return (True, pinned) if _holds(parts, {**assignment, v: pinned}) else (False, None)

    lo = None if lower is None else lower.value
    hi = None if upper is None else upper.value
    steps = _QUOTIENT_STEPS
    if home:
        ok, coset = _solve(coset_parts, _COSET, assignment)
        if not ok:
            return False, None
        # the walk stays on the coset, so an excluded point off it is never met
        base, steps = section(coset), _HOME_STEPS
        lo = None if lo is None else lo - base
        hi = None if hi is None else hi - base
    for candidate in _candidates(lo, hi, steps, len(excluded) + 1):
        if home:
            candidate = base + candidate
        if candidate not in excluded:
            if not _holds(parts, {**assignment, v: candidate}):
                raise InternalError(f"{v.sort.value} witness failed re-evaluation")
            return True, candidate
    raise InternalError(f"{v.sort.value} candidate enumeration exhausted")


def _parts(
    literals: Sequence[Formula], v: Variable, assignment: Assignment
) -> list[tuple]:
    """(literal, atom, positive, reading for v) for each literal, read in one
    pass that rejects a non-literal; then a parameter the assignment leaves
    unbound or binds to a value not of its sort is rejected as
    `check_parameters` rejects the first of all of them."""
    parts = []
    for lit in literals:
        atom, positive = literal_parts(lit)
        parts.append((lit, atom, positive, _read(atom, v)))
    for part in parts:
        for var in part[3][1]:
            if type(assignment.get(var)) is not var._element:
                check_parameters({p for *_, r in parts for p in r[1]}, assignment)
    return parts


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
    assignment = assignment or {}
    parts = _parts(literals, v, assignment)
    if not ordered:
        for part in parts:
            if part[1].kind is _QUOT_PREC:
                raise ModeError("prec literals require the ordered quotient oracle")
    return _solve(parts, v, assignment)


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
    assignment = assignment or {}
    return _solve(_parts(literals, v, assignment), v, assignment)
