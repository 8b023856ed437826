"""Quantifier elimination and sentence decision.

The eliminator works innermost-first, by one step for every existential,
which `eliminate_exists_home` and `eliminate_exists_quotient` run too.
The conjuncts of the body that do not mention the bound variable are
pulled out of its scope, so independent disjunctions are never
multiplied out.  The rest is first read at the test points -inf and +inf
(Loos & Weispfenning): past every root an order atom on the variable
takes its limit and an equation on it fails, and when the conjunction
then holds at either end, whatever its other atoms are, the step is true.
Otherwise the rest is put in disjunctive normal form, and each
conjunction of it loses the bound variable separately, by one clause
step for both sorts.  The table `formulas.KINDS` gives the step its
sort's equation and order kinds, `=` and `<` at home and `=` and `prec`
in the quotient, and `make_atom` builds its bound pairs of the order
kind.  An equation on the variable lets us substitute its root, atom by
atom.  Otherwise disequations are dropped, since finitely many excluded
points never empty a dense, infinite space, and the strict bounds
combine by Fourier-Motzkin, which is exact because both orders are dense
without endpoints.  A home variable also meets membership and quotient
literals, which only constrain its coset pi(v): every coset of the
rational line is dense, so a nonempty open interval meets whichever
coset they require.  They become literals on a quotient-sort stand-in
for pi(v), as `quotient_atom` states them, and the same step, run on the
stand-in, eliminates it.  The step folds each ground atom it makes, a
substituted literal or a bound pair, so the clauses' disjunction is
simplified as built.  The pulled-out conjuncts then meet the result,
which may be all there is, under the absorption and contradiction rules
that the normal form would have applied to them.

Universal quantifiers are rewritten through their existential duals.
Truth of a sentence is then read off the reference model, which is
legitimate because each supported theory is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Sequence

from .errors import FreeVariableError, NotConjunctionError, SortError
from .evaluate import eval_formula
from .formulas import (
    _ORDER,
    KINDS,
    TRUE,
    Atom,
    And,
    BoolConst,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    TheoryMode,
    admit,
    dnf_clauses,
    fold_ground,
    free_variables,
    fresh_variable,
    literal_parts,
    make_and,
    make_atom,
    make_not,
    make_or,
    nnf,
    quotient_atom,
    rewrite,
    substitute_atom,
    traverse,
)
from .terms import HomeTerm, QuotientTerm, Sort, Variable


_WEAK_ORDER = "weak order literal reached the eliminator; normalize to strict form first"


def _eliminate_clause(literals: Sequence[Formula], v: Variable) -> Formula:
    """Drop an existential v of either sort from one strict-literal clause."""
    eq, order = KINDS[v.sort]
    keep: list[Formula] = []
    vlits = []  # (literal, atom, positive, sign of v's coefficient)
    for lit in literals:
        atom, positive = literal_parts(lit)
        sign = atom.payload.coeff_sign(v)
        if sign:
            vlits.append((lit, atom, positive, sign))
        else:
            keep.append(lit)
    for lit, atom, positive, _ in vlits:
        if atom.kind is eq and positive:
            witness = atom.payload.root(v)
            for o, a, pos, _ in vlits:
                if o is not lit:
                    b = fold_ground(substitute_atom(a, v, witness))
                    keep.append(b if pos else make_not(b))
            return make_and(keep)

    lowers: list[HomeTerm | QuotientTerm] = []
    uppers: list[HomeTerm | QuotientTerm] = []
    wlits: list[Formula] = []
    w = None  # a quotient-sort stand-in for pi(v), made when the coset of v is constrained
    for lit, atom, positive, sign in vlits:
        if atom.kind is eq:
            continue  # a disequation excludes one point of a dense, infinite space
        if atom.kind is order:
            if not positive:
                raise NotConjunctionError(_WEAK_ORDER)
            (uppers if sign > 0 else lowers).append(atom.payload.root(v))
            continue
        # v is home-sort: a membership or quotient literal constrains pi(v)
        if w is None:
            taken = [u for o in literals for u in literal_parts(o)[0].payload.variables()]
            w = fresh_variable(Sort.QUOTIENT, taken)
        watom = quotient_atom(atom, {v: w})  # pi(v) is w
        wlits.append(watom if positive else make_not(watom))

    pairs = [fold_ground(make_atom(order, lo - up)) for lo in lowers for up in uppers]
    return make_and(keep + pairs + ([_eliminate_clause(wlits, w)] if wlits else []))


# bench/spans.py wraps the step under these two names; they go when it reads the one
_eliminate_home_clause = _eliminate_quotient_clause = _eliminate_clause


def _eliminate(f: Formula, v: Variable) -> Formula:
    """Eliminate an existential v from f, one DNF clause at a time.  The clause
    step folds each ground atom it makes, so the result is simplified."""
    return make_or([_eliminate_clause(clause, v) for clause in dnf_clauses(f)])


def _eliminate_exists(
    literals: Sequence[Formula], v: Variable, mode: TheoryMode, sort: Sort
) -> Formula:
    if v.sort is not sort:
        raise SortError(f"{v} is not a {sort.value}-sort variable")
    for lit in literals:
        literal_parts(lit)  # reject anything that is not a literal
    return qe(Exists(v, make_and(literals)), mode)


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


def _prune(conjuncts: list[Formula]) -> list[Formula]:
    """The conjuncts, each read in negation normal form, without those true given the rest
    (A & (A | B) is A), without the literals of a disjunct that are conjuncts
    (A & (A & B | C) is A & (B | C)), and without the disjuncts that hold a literal
    complementary to a conjunct (!A & (A | B) is !A & B, A & (!A | B) is A & B) or that
    contain another disjunct (A | A & B is A)."""
    given, negated = set(conjuncts), {c.sub for c in conjuncts if isinstance(c, Not)}
    kept = []
    for c in conjuncts:
        if isinstance(c, Atom):
            kept.append(c)
            continue
        n = c if _in_nnf(c) else nnf(c)
        ds = n.children if isinstance(n, Or) else ()
        lits = [d.children if isinstance(d, And) else (d,) for d in ds]
        parts = [[lit for lit in ls if lit not in given] for ls in lits]
        if n == TRUE or not all(parts):
            continue
        sets = [set(p) for p in parts]
        live = [
            d if len(p) == len(ls) else make_and(p)  # a disjunct that lost no literal stays as it is
            for d, ls, p, s in zip(ds, lits, parts, sets)
            if not any(lit.sub in given if type(lit) is Not else lit in negated for lit in p)
            and not any(t < s for t in sets)
        ]
        kept.append(c if len(live) == len(ds) and all(map(is_, live, ds)) else make_or(live))
    return kept


def _in_nnf(f: Formula) -> bool:
    """Whether the quantifier-free f, built by `make_and`/`make_or`, is its own
    negation normal form: whether it negates only equation and membership atoms."""
    pending = [f]
    while pending:
        g = pending.pop()
        if type(g) is Not:
            if type(g.sub) is not Atom or g.sub.kind in _ORDER:
                return False
        elif type(g) is And or type(g) is Or:
            pending.extend(g.children)
    return True


def _mentions(f: Formula, v: Variable) -> bool:
    """Whether v occurs in the quantifier-free f, by a walk on a stack that
    compiles and keeps nothing on the nodes."""
    pending = [f]
    while pending:
        g = pending.pop()
        if isinstance(g, Atom):
            if g.payload.coeff_sign(v):
                return True
        elif isinstance(g, Not):
            pending.append(g.sub)
        elif isinstance(g, (And, Or)):
            pending.extend(g.children)
    return False


# A reading at infinity is a mask of what each end allows: bit 0 that the formula
# may hold as v -> -inf, bit 1 that it may fail there, bits 2 and 3 the same at +inf
_HOLD, _FAIL, _UNKNOWN = 0b0101, 0b1010, 0b1111
_BELOW, _ABOVE = 0b1001, 0b0110  # an order atom that holds below every root, above every root


def _negated(m: int) -> int:
    return (m & _HOLD) << 1 | (m & _FAIL) >> 1


def _holds_at_infinity(conjuncts: Sequence[Formula], v: Variable) -> bool:
    """Whether the conjunction holds for every v below all the roots of its
    atoms on v, or for every v above them, whatever the parameters; if so,
    ∃v is true.  Past every root an order atom on v takes its limit, by the
    sign of v's coefficient, and an equation on v fails; every other atom,
    a coset atom on a home v or one without v, is unknown, and the
    connectives read three values.  One walk on `traverse`, building
    nothing; it stops at the first conjunct after which both ends may fail."""
    eq, order = KINDS[v.sort]

    def connective(g):
        if type(g) is Not:
            return _negated((yield g.sub))
        is_or = type(g) is Or  # an Or is the negated And of its negated children
        can_hold, can_fail = _HOLD, 0
        for c in g.children:
            m = yield c
            m = _negated(m) if is_or else m
            can_hold &= m
            can_fail |= m & _FAIL
        return _negated(can_hold | can_fail) if is_or else can_hold | can_fail

    def step(g):
        kind = type(g)
        if kind is Atom:
            sign = g.payload.coeff_sign(v)
            if sign and g.kind is order:
                return _BELOW if sign > 0 else _ABOVE
            return _FAIL if sign and g.kind is eq else _UNKNOWN
        if kind is BoolConst:
            return _HOLD if g.value else _FAIL
        return connective(g)

    can_fail = 0
    for c in conjuncts:
        can_fail |= traverse(step, c) & _FAIL
        if can_fail == _FAIL:
            return False
    return True


def _qe(f: Formula) -> Formula:
    """Eliminate quantifiers innermost first.  Atoms are folded and connectives rebuilt
    on the way up as `simplify` does, so every body and the result are simplified."""

    def quantifier(g):
        if isinstance(g, Forall):
            return make_not((yield Exists(g.var, make_not(g.body))))
        body, v = (yield g.body), g.var
        inside, pulled = [], []  # the conjuncts with v, and those without it
        for c in body.children if isinstance(body, And) else (body,):
            (inside if _mentions(c, v) else pulled).append(c)
        if not inside:
            inside, pulled = pulled, inside  # a vacuous quantifier still puts its body in DNF
        if _holds_at_infinity(inside, v):
            return make_and(_prune(pulled))  # the DNF would hold a clause that eliminates to true
        return make_and(_prune(pulled + [_eliminate(make_and(inside), v)]))

    return rewrite(f, fold_ground, quantifier)


def qe(f: Formula, mode: TheoryMode = TheoryMode.POVS) -> Formula:
    """A quantifier-free formula equivalent to f in every model of the theory;
    f is admitted to `mode` first, at no cost if `parse` admitted it to it."""
    return _qe(admit(f, mode))


def decide_sentence(f: Formula, mode: TheoryMode = TheoryMode.POVS) -> bool:
    """Truth value of a sentence; the theory is complete, so evaluating the
    eliminated form over the reference model decides it."""
    free = free_variables(f)
    if free:
        names = ", ".join(v.name for v in sorted(free, key=Variable.sort_key))
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
    if atom.kind in KINDS[Sort.HOME]:
        return AtomSplit(home=atom, quotient=None)
    return AtomSplit(home=None, quotient=quotient_atom(atom, {}))
