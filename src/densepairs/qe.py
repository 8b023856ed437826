"""Quantifier elimination and sentence decision.

The eliminator works innermost-first: the matrix under a quantifier is
put in disjunctive normal form and each conjunction loses the bound
variable separately.  For a home-sort variable, an equation lets us
substitute; otherwise the order literals reduce to endpoint conditions
(every coset of the rational line is dense, so a nonempty open interval
always meets whichever coset the membership literals require), and the
membership/quotient constraints on the variable's coset are themselves
an existential problem over the quotient sort, delegated to the
quotient eliminator through a stand-in variable.  For a quotient-sort
variable, equations substitute, finitely many disequations never block
satisfiability in the infinite quotient space, and in the ordered
expansion the strict bounds combine by Fourier-Motzkin, which is exact
because the quotient order is dense without endpoints.

Universal quantifiers are rewritten through their existential duals.
Truth of a sentence is then read off the reference model, which is
legitimate because each supported theory is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    FreeVariableError,
    ModeError,
    NotConjunctionError,
    SortError,
)
from .evaluate import eval_formula
from .formulas import (
    And,
    Atom,
    AtomKind,
    BoolConst,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    TheoryMode,
    check_mode,
    dnf_clauses,
    free_variables,
    home_lt,
    literal_parts,
    make_and,
    make_not,
    make_or,
    quot_eq,
    quot_prec,
    simplify,
    standardize,
    substitute,
)
from .terms import HomeTerm, QuotientTerm, Sort, Variable


def _contains(lit: Formula, v: Variable) -> bool:
    atom, _ = literal_parts(lit)
    return atom.payload.coeff(v) != 0


def _fresh_quotient_var(literals: Sequence[Formula]) -> Variable:
    top = -1
    for lit in literals:
        atom, _ = literal_parts(lit)
        for var in atom.payload.variables():
            if var.sort is Sort.QUOTIENT:
                top = max(top, var.index)
    return Variable(Sort.QUOTIENT, top + 1)


def _eliminate_home_clause(
    literals: Sequence[Formula], v: Variable, mode: TheoryMode
) -> Formula:
    """Drop an existential home-sort variable from one strict-literal clause."""
    keep = [lit for lit in literals if not _contains(lit, v)]
    vlits = [lit for lit in literals if _contains(lit, v)]

    for lit in vlits:
        atom, positive = literal_parts(lit)
        if atom.kind is AtomKind.HOME_EQ and positive:
            coeff = atom.payload.coeff(v)
            witness = atom.payload.without(v).scale(-1 / coeff)
            rest = [other for other in vlits if other is not lit]
            replaced = [substitute(other, v, witness) for other in rest]
            return make_and(keep + replaced)

    lowers: list[HomeTerm] = []
    uppers: list[HomeTerm] = []
    wlits: list[Formula] = []
    w = _fresh_quotient_var(literals)
    for lit in vlits:
        atom, positive = literal_parts(lit)
        coeff = atom.payload.coeff(v)
        if atom.kind is AtomKind.HOME_EQ:
            continue  # a disequation excludes one point of a dense set
        if atom.kind is AtomKind.HOME_LT:
            if not positive:
                raise NotConjunctionError(
                    "weak order literal reached the eliminator; normalize to strict form first"
                )
            point = atom.payload.without(v).scale(-1 / coeff)
            (uppers if coeff > 0 else lowers).append(point)
            continue
        # membership or quotient literal: constrain the coset pi(v), via w
        if atom.kind is AtomKind.IN_Q:
            rest = atom.payload.without(v)
            s = QuotientTerm({w: coeff}) + QuotientTerm.project_term(rest)
            watom: Formula = quot_eq(s)
        else:
            if atom.kind is AtomKind.QUOT_PREC and mode is not TheoryMode.POVS_PREC:
                raise ModeError("prec literals require theory mode povs-prec")
            s = QuotientTerm({w: coeff}) + atom.payload.without(v)
            watom = quot_eq(s) if atom.kind is AtomKind.QUOT_EQ else quot_prec(s)
        wlits.append(watom if positive else make_not(watom))

    pairs = [home_lt(lo - up) for lo in lowers for up in uppers]
    coset_side = _eliminate_quotient_clause(wlits, w, mode) if wlits else None
    out = keep + pairs + ([coset_side] if coset_side is not None else [])
    return make_and(out)


def _eliminate_quotient_clause(
    literals: Sequence[Formula], v: Variable, mode: TheoryMode
) -> Formula:
    """Drop an existential quotient-sort variable from one strict-literal clause."""
    keep = [lit for lit in literals if not _contains(lit, v)]
    vlits = [lit for lit in literals if _contains(lit, v)]

    for lit in vlits:
        atom, positive = literal_parts(lit)
        if atom.kind is AtomKind.QUOT_EQ and positive:
            coeff = atom.payload.coeff(v)
            witness = atom.payload.without(v).scale(-1 / coeff)
            rest = [other for other in vlits if other is not lit]
            replaced = [substitute(other, v, witness) for other in rest]
            return make_and(keep + replaced)

    lowers: list[QuotientTerm] = []
    uppers: list[QuotientTerm] = []
    for lit in vlits:
        atom, positive = literal_parts(lit)
        if atom.kind in (AtomKind.HOME_EQ, AtomKind.HOME_LT, AtomKind.IN_Q):
            raise SortError(f"home-sort literal mentions quotient variable: {lit}")
        if atom.kind is AtomKind.QUOT_EQ:
            continue  # disequations never block a witness in an infinite space
        if mode is not TheoryMode.POVS_PREC:
            raise ModeError("prec literals require theory mode povs-prec")
        if not positive:
            raise NotConjunctionError(
                "weak order literal reached the eliminator; normalize to strict form first"
            )
        coeff = atom.payload.coeff(v)
        point = atom.payload.without(v).scale(-1 / coeff)
        (uppers if coeff > 0 else lowers).append(point)

    pairs = [quot_prec(lo - up) for lo in lowers for up in uppers]
    return make_and(keep + pairs)


def _eliminate(f: Formula, v: Variable, mode: TheoryMode) -> Formula:
    """Eliminate an existential v from f, one DNF clause at a time."""
    results = []
    for clause in dnf_clauses(f):
        if v.sort is Sort.HOME:
            results.append(_eliminate_home_clause(clause, v, mode))
        else:
            results.append(_eliminate_quotient_clause(clause, v, mode))
    return simplify(make_or(results))


def eliminate_exists_home(
    literals: Sequence[Formula], v: Variable, mode: TheoryMode = TheoryMode.POVS
) -> Formula:
    """A quantifier-free equivalent of 'exists v. (and of literals)', v home-sort."""
    if v.sort is not Sort.HOME:
        raise SortError(f"{v} is not a home-sort variable")
    for lit in literals:
        literal_parts(lit)  # reject anything that is not a literal
    return _eliminate(make_and(literals), v, mode)


def eliminate_exists_quotient(
    literals: Sequence[Formula], v: Variable, mode: TheoryMode = TheoryMode.POVS
) -> Formula:
    """A quantifier-free equivalent of 'exists v. (and of literals)', v quotient-sort."""
    if v.sort is not Sort.QUOTIENT:
        raise SortError(f"{v} is not a quotient-sort variable")
    for lit in literals:
        literal_parts(lit)  # reject anything that is not a literal
    return _eliminate(make_and(literals), v, mode)


def _qe(f: Formula, mode: TheoryMode) -> Formula:
    if isinstance(f, (BoolConst, Atom)):
        return f
    if isinstance(f, Not):
        return make_not(_qe(f.sub, mode))
    if isinstance(f, And):
        return make_and(_qe(c, mode) for c in f.children)
    if isinstance(f, Or):
        return make_or(_qe(c, mode) for c in f.children)
    if isinstance(f, Forall):
        return make_not(_qe(Exists(f.var, make_not(f.body)), mode))
    assert isinstance(f, Exists)
    return _eliminate(simplify(_qe(f.body, mode)), f.var, mode)


def qe(f: Formula, mode: TheoryMode = TheoryMode.POVS) -> Formula:
    """A quantifier-free formula equivalent to f in every model of the theory."""
    check_mode(f, mode)
    return simplify(_qe(standardize(f), mode))


def decide_sentence(f: Formula, mode: TheoryMode = TheoryMode.POVS) -> bool:
    """Truth value of a sentence; the theory is complete, so evaluating the
    eliminated form over the reference model decides it."""
    free = free_variables(f)
    if free:
        names = ", ".join(sorted(v.name for v in free))
        raise FreeVariableError(f"not a sentence; free variables: {names}")
    return eval_formula(qe(f, mode), {})


@dataclass(frozen=True)
class AtomSplit:
    """An atom routed to its pure home-sort or pure quotient-sort equivalent."""

    home: Formula | None
    quotient: Formula | None


def split_atom(atom: Atom) -> AtomSplit:
    """Route an atom to the sort that can state it without the pairing map.

    Order and equality atoms of the home sort stay put; a membership
    atom is equivalent to its image vanishing in the quotient; quotient
    atoms are already quotient-sort statements.  Exactly one side is
    populated.
    """
    if not isinstance(atom, Atom):
        raise NotConjunctionError(f"not an atom: {atom}")
    if atom.kind in (AtomKind.HOME_EQ, AtomKind.HOME_LT):
        return AtomSplit(home=atom, quotient=None)
    if atom.kind is AtomKind.IN_Q:
        image = QuotientTerm.project_term(atom.payload)
        return AtomSplit(home=None, quotient=quot_eq(image))
    return AtomSplit(home=None, quotient=atom)
