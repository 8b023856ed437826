"""Quantifier elimination and sentence decision.

The eliminator works innermost-first: the matrix under a quantifier is
put in disjunctive normal form and each conjunction loses the bound
variable separately, by one clause step for both sorts.  A table gives
the step its sort's equation kind, order kind and order-atom factory:
`=` and `<` with `home_lt` at home, `=` and `prec` with `quot_prec` in
the quotient.  An equation on the variable lets us substitute its root.
Otherwise disequations are dropped, since finitely many excluded points
never empty a dense, infinite space, and the strict bounds combine by
Fourier-Motzkin, which is exact because both orders are dense without
endpoints.  A home variable also meets membership and quotient
literals, which only constrain its coset pi(v): every coset of the
rational line is dense, so a nonempty open interval meets whichever
coset they require.  They become literals on a quotient-sort stand-in
for pi(v), and the same step, run on the stand-in, eliminates it.

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


# Sort -> (equation kind, order kind, order-atom factory) of the clause step
_SORTS = {
    Sort.HOME: (AtomKind.HOME_EQ, AtomKind.HOME_LT, home_lt),
    Sort.QUOTIENT: (AtomKind.QUOT_EQ, AtomKind.QUOT_PREC, quot_prec),
}


def _eliminate_clause(literals: Sequence[Formula], v: Variable) -> Formula:
    """Drop an existential v of either sort from one strict-literal clause."""
    eq, order, order_atom = _SORTS[v.sort]
    keep: list[Formula] = []
    vlits = []  # (literal, atom, positive, coeff of v)
    for lit in literals:
        atom, positive = literal_parts(lit)
        coeff = atom.payload.coeff(v)
        if coeff:
            vlits.append((lit, atom, positive, coeff))
        else:
            keep.append(lit)
    for lit, atom, positive, _ in vlits:
        if atom.kind is eq and positive:
            witness = atom.payload.root(v)
            return make_and(keep + [substitute(o, v, witness) for o, *_ in vlits if o is not lit])

    lowers: list[HomeTerm | QuotientTerm] = []
    uppers: list[HomeTerm | QuotientTerm] = []
    wlits: list[Formula] = []
    w = None  # a quotient-sort stand-in for pi(v), made when the coset of v is constrained
    for lit, atom, positive, coeff in vlits:
        if atom.kind is eq:
            continue  # a disequation excludes one point of a dense, infinite space
        if atom.kind is order:
            if not positive:
                raise NotConjunctionError(_WEAK_ORDER)
            (uppers if coeff > 0 else lowers).append(atom.payload.root(v))
            continue
        # v is home-sort: a membership or quotient literal constrains pi(v)
        if w is None:
            taken = [u for o in literals for u in literal_parts(o)[0].payload.variables()]
            w = fresh_variable(Sort.QUOTIENT, taken)
        rest = atom.payload.without(v)
        if atom.kind is AtomKind.IN_Q:
            rest = QuotientTerm.project_term(rest)
        s = QuotientTerm({w: coeff}) + rest
        watom = quot_prec(s) if atom.kind is AtomKind.QUOT_PREC else quot_eq(s)
        wlits.append(watom if positive else make_not(watom))

    pairs = [order_atom(lo - up) for lo in lowers for up in uppers]
    return make_and(keep + pairs + ([_eliminate_clause(wlits, w)] if wlits else []))


# bench/spans.py wraps the step under these two names; they go when it reads the one
_eliminate_home_clause = _eliminate_quotient_clause = _eliminate_clause


def _eliminate(f: Formula, v: Variable) -> Formula:
    """Eliminate an existential v from f, one DNF clause at a time."""
    return simplify(make_or([_eliminate_clause(clause, v) for clause in dnf_clauses(f)]))


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
