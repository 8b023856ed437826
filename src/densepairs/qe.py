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

from .errors import FreeVariableError, NotConjunctionError, SortError
from .evaluate import eval_formula
from .formulas import (
    Atom,
    AtomKind,
    Exists,
    Forall,
    Formula,
    TheoryMode,
    admit,
    dnf_clauses,
    fold_ground,
    free_variables,
    fresh_variable,
    home_lt,
    literal_parts,
    make_and,
    make_not,
    make_or,
    quot_eq,
    quot_prec,
    rewrite,
    simplify,
    substitute,
)
from .terms import HomeTerm, QuotientTerm, Sort, Variable


_WEAK_ORDER = "weak order literal reached the eliminator; normalize to strict form first"


def _contains(lit: Formula, v: Variable) -> bool:
    atom, _ = literal_parts(lit)
    return atom.payload.coeff(v) != 0


def _solve_equation(literals: Sequence[Formula], v: Variable, kind: AtomKind):
    """Literals without v, with v, and the rest with v solved by a `kind` equation, or None."""
    keep = [lit for lit in literals if not _contains(lit, v)]
    vlits = [lit for lit in literals if _contains(lit, v)]
    for lit in vlits:
        atom, positive = literal_parts(lit)
        if atom.kind is kind and positive:
            witness = atom.payload.root(v)
            replaced = [substitute(other, v, witness) for other in vlits if other is not lit]
            return keep, vlits, make_and(keep + replaced)
    return keep, vlits, None


def _eliminate_home_clause(literals: Sequence[Formula], v: Variable) -> Formula:
    """Drop an existential home-sort variable from one strict-literal clause."""
    keep, vlits, solved = _solve_equation(literals, v, AtomKind.HOME_EQ)
    if solved is not None:
        return solved

    lowers: list[HomeTerm] = []
    uppers: list[HomeTerm] = []
    wlits: list[Formula] = []
    used = [u for lit in literals for u in literal_parts(lit)[0].payload.variables()]
    w = fresh_variable(Sort.QUOTIENT, used)  # stands for pi(v)
    for lit in vlits:
        atom, positive = literal_parts(lit)
        coeff = atom.payload.coeff(v)
        if atom.kind is AtomKind.HOME_EQ:
            continue  # a disequation excludes one point of a dense set
        if atom.kind is AtomKind.HOME_LT:
            if not positive:
                raise NotConjunctionError(_WEAK_ORDER)
            (uppers if coeff > 0 else lowers).append(atom.payload.root(v))
            continue
        # membership or quotient literal: constrain the coset pi(v), via w
        if atom.kind is AtomKind.IN_Q:
            rest = atom.payload.without(v)
            s = QuotientTerm({w: coeff}) + QuotientTerm.project_term(rest)
            watom: Formula = quot_eq(s)
        else:
            s = QuotientTerm({w: coeff}) + atom.payload.without(v)
            watom = quot_eq(s) if atom.kind is AtomKind.QUOT_EQ else quot_prec(s)
        wlits.append(watom if positive else make_not(watom))

    pairs = [home_lt(lo - up) for lo in lowers for up in uppers]
    coset_side = _eliminate_quotient_clause(wlits, w) if wlits else None
    out = keep + pairs + ([coset_side] if coset_side is not None else [])
    return make_and(out)


def _eliminate_quotient_clause(literals: Sequence[Formula], v: Variable) -> Formula:
    """Drop an existential quotient-sort variable from one strict-literal clause."""
    keep, vlits, solved = _solve_equation(literals, v, AtomKind.QUOT_EQ)
    if solved is not None:
        return solved

    lowers: list[QuotientTerm] = []
    uppers: list[QuotientTerm] = []
    for lit in vlits:
        atom, positive = literal_parts(lit)
        if atom.kind is AtomKind.QUOT_EQ:
            continue  # disequations never block a witness in an infinite space
        if not positive:
            raise NotConjunctionError(_WEAK_ORDER)
        (uppers if atom.payload.coeff(v) > 0 else lowers).append(atom.payload.root(v))

    pairs = [quot_prec(lo - up) for lo in lowers for up in uppers]
    return make_and(keep + pairs)


def _eliminate(f: Formula, v: Variable) -> Formula:
    """Eliminate an existential v from f, one DNF clause at a time."""
    results = []
    for clause in dnf_clauses(f):
        if v.sort is Sort.HOME:
            results.append(_eliminate_home_clause(clause, v))
        else:
            results.append(_eliminate_quotient_clause(clause, v))
    return simplify(make_or(results))


def _eliminate_exists(
    literals: Sequence[Formula], v: Variable, mode: TheoryMode, sort: Sort
) -> Formula:
    if v.sort is not sort:
        raise SortError(f"{v} is not a {sort.value}-sort variable")
    for lit in literals:
        literal_parts(lit)  # reject anything that is not a literal
    f = make_and(literals)
    admit(Exists(v, f), mode)  # what `qe` checks of the same formula
    return _eliminate(f, v)


def eliminate_exists_home(
    literals: Sequence[Formula], v: Variable, mode: TheoryMode = TheoryMode.POVS
) -> Formula:
    """A quantifier-free equivalent of 'exists v. (and of literals)', v home-sort."""
    return _eliminate_exists(literals, v, mode, Sort.HOME)


def eliminate_exists_quotient(
    literals: Sequence[Formula], v: Variable, mode: TheoryMode = TheoryMode.POVS
) -> Formula:
    """A quantifier-free equivalent of 'exists v. (and of literals)', v quotient-sort."""
    return _eliminate_exists(literals, v, mode, Sort.QUOTIENT)


def _qe(f: Formula) -> Formula:
    """Eliminate quantifiers innermost first.  Atoms are folded and connectives rebuilt
    on the way up as `simplify` does, so every body and the result are simplified."""

    def quantifier(g):
        if isinstance(g, Forall):
            return make_not((yield Exists(g.var, make_not(g.body))))
        return _eliminate((yield g.body), g.var)

    return rewrite(f, fold_ground, quantifier)


def qe(f: Formula, mode: TheoryMode = TheoryMode.POVS) -> Formula:
    """A quantifier-free formula equivalent to f in every model of the theory."""
    return _qe(admit(f, mode))


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
