"""Two-sorted first-order formulas and their Boolean normal forms.

Atoms are stored one-sided: ``t = 0``, ``t < 0``, ``t in Q`` for home
terms and ``s = 0``, ``s prec 0`` for quotient terms, with the payload
rescaled so that its leading coefficient is a unit.  Negation normal
form additionally rewrites negated order atoms into positive ones
(``not (t < 0)`` becomes ``-t < 0 or t = 0``), so after DNF a
conjunction carries only strict bounds, (dis)equations, and subspace
membership literals -- the shape the elimination and decomposition
passes consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Sequence

from .errors import (
    CaptureError,
    ModeError,
    NotConjunctionError,
    NotGroundError,
    QuantifiedInputError,
    SortError,
)
from .terms import TERM_CLASS, HomeTerm, QuotientTerm, Sort, Term, Variable

if TYPE_CHECKING:
    from .evaluate import Assignment


class TheoryMode(Enum):
    OVS = "ovs"
    POVS = "povs"
    POVS_PREC = "povs-prec"


class AtomKind(Enum):
    HOME_EQ = "home_eq"
    HOME_LT = "home_lt"
    IN_Q = "in_q"
    QUOT_EQ = "quot_eq"
    QUOT_PREC = "quot_prec"


_HOME_KINDS = {AtomKind.HOME_EQ, AtomKind.HOME_LT, AtomKind.IN_Q}


class Formula:
    """Base class; concrete nodes are the dataclasses below."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return make_and([self, other])

    def __or__(self, other: "Formula") -> "Formula":
        return make_or([self, other])

    def __invert__(self) -> "Formula":
        return make_not(self)


@dataclass(frozen=True)
class BoolConst(Formula):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True)
class Atom(Formula):
    kind: AtomKind
    payload: Term

    def __post_init__(self):
        want_home = self.kind in _HOME_KINDS
        if want_home != isinstance(self.payload, HomeTerm):
            raise SortError(f"{self.kind.value} atom with {type(self.payload).__name__} payload")
        # hashed once: set and dict lookups during DNF would otherwise
        # rehash the kind (a Python-level Enum.__hash__) every time
        object.__setattr__(self, "_hash", hash((self.kind, self.payload)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        pos, neg = _atom_sides(self.payload)
        if self.kind is AtomKind.QUOT_EQ:
            # the all-zero payload would render as the home-sort "0 = 0"
            if self.payload.is_zero():
                return "pi(0) = 0"
            return f"{pos} = {neg}"
        if self.kind is AtomKind.HOME_EQ:
            return f"{pos} = {neg}"
        if self.kind is AtomKind.HOME_LT:
            return f"{pos} < {neg}"
        if self.kind is AtomKind.QUOT_PREC:
            return f"{pos} prec {neg}"
        return f"Q({self.payload})"


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula

    def __str__(self) -> str:
        if isinstance(self.sub, Atom):
            if self.sub.kind is AtomKind.QUOT_EQ:
                if self.sub.payload.is_zero():
                    return "pi(0) != 0"
                pos, neg = _atom_sides(self.sub.payload)
                return f"{pos} != {neg}"
            if self.sub.kind is AtomKind.IN_Q:
                return f"!Q({self.sub.payload})"
            return f"!({self.sub})"
        return f"!({self.sub})"


@dataclass(frozen=True)
class And(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        assert len(self.children) >= 2, "And requires at least two children"

    def __str__(self) -> str:
        return " & ".join(_wrap(c, 2) for c in self.children)


@dataclass(frozen=True)
class Or(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        assert len(self.children) >= 2, "Or requires at least two children"

    def __str__(self) -> str:
        return " | ".join(_wrap(c, 1) for c in self.children)


@dataclass(frozen=True)
class Exists(Formula):
    var: Variable
    body: Formula

    def __str__(self) -> str:
        return f"E {self.var}. {self.body}"


@dataclass(frozen=True)
class Forall(Formula):
    var: Variable
    body: Formula

    def __str__(self) -> str:
        return f"A {self.var}. {self.body}"


def _level(f: Formula) -> int:
    if isinstance(f, (Exists, Forall)):
        return 0
    if isinstance(f, Or):
        return 1
    if isinstance(f, And):
        return 2
    return 3


def _wrap(f: Formula, need: int) -> str:
    text = str(f)
    return f"({text})" if _level(f) < need else text


def _atom_sides(t: Term) -> tuple[str, str]:
    """Split a one-sided payload into positive/negative halves for display."""
    pos, neg = t.halves()
    return str(pos), str(neg)


def _lead_coeff(t: Term) -> Fraction | None:
    """First nonzero coefficient: quotient variables by index, then home
    variables by index, then the constant by radicand."""
    variables = t.variables()
    if variables:
        return t.coeff(min(variables, key=lambda w: (w.sort is Sort.HOME, w.index)))
    for _, q in t.constant.items():
        return q
    return None


def _normalize(t: Term, sign_free: bool) -> Term:
    """Rescale so the leading coefficient is a unit.

    Equations and membership atoms are invariant under any nonzero
    rational rescaling, so their lead becomes +1; order atoms only admit
    positive rescaling, so their lead becomes +1 or -1.
    """
    lead = _lead_coeff(t)
    if lead is None:
        return t
    return t.scale(1 / lead if sign_free else 1 / abs(lead))


def home_eq(t: HomeTerm) -> Atom:
    return Atom(AtomKind.HOME_EQ, _normalize(t, sign_free=True))


def home_lt(t: HomeTerm) -> Atom:
    return Atom(AtomKind.HOME_LT, _normalize(t, sign_free=False))


def in_q(t: HomeTerm) -> Atom:
    return Atom(AtomKind.IN_Q, _normalize(t, sign_free=True))


def quot_eq(s: QuotientTerm) -> Atom:
    return Atom(AtomKind.QUOT_EQ, _normalize(s, sign_free=True))


def quot_prec(s: QuotientTerm) -> Atom:
    return Atom(AtomKind.QUOT_PREC, _normalize(s, sign_free=False))


_ATOM_FACTORY = {
    AtomKind.HOME_EQ: home_eq,
    AtomKind.HOME_LT: home_lt,
    AtomKind.IN_Q: in_q,
    AtomKind.QUOT_EQ: quot_eq,
    AtomKind.QUOT_PREC: quot_prec,
}


def eval_atom(atom: Atom, assignment: Assignment) -> bool:
    """Truth of an atom under an assignment; `simplify` folds ground atoms with it."""
    value = atom.payload.evaluate(assignment)
    if atom.kind is AtomKind.HOME_EQ:
        return value.is_zero()
    if atom.kind is AtomKind.HOME_LT:
        return value.sign() < 0
    if atom.kind is AtomKind.IN_Q:
        return value.in_q()
    if atom.kind is AtomKind.QUOT_EQ:
        return value.is_zero()
    return value.lex_sign() < 0


def make_not(f: Formula) -> Formula:
    if f is TRUE:
        return FALSE
    if f is FALSE:
        return TRUE
    if isinstance(f, Not):
        return f.sub
    return Not(f)


def make_and(children: Iterable[Formula]) -> Formula:
    flat: list[Formula] = []
    seen = set()
    for c in children:
        if isinstance(c, And):
            items = c.children
        else:
            items = (c,)
        for item in items:
            if item is FALSE or item == FALSE:
                return FALSE
            if item is TRUE or item == TRUE:
                continue
            if item not in seen:
                seen.add(item)
                flat.append(item)
    for item in flat:
        if make_not(item) in seen:
            return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def make_or(children: Iterable[Formula]) -> Formula:
    flat: list[Formula] = []
    seen = set()
    for c in children:
        if isinstance(c, Or):
            items = c.children
        else:
            items = (c,)
        for item in items:
            if item is TRUE or item == TRUE:
                return TRUE
            if item is FALSE or item == FALSE:
                continue
            if item not in seen:
                seen.add(item)
                flat.append(item)
    for item in flat:
        if make_not(item) in seen:
            return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def free_variables(f: Formula) -> frozenset[Variable]:
    if isinstance(f, BoolConst):
        return frozenset()
    if isinstance(f, Atom):
        return f.payload.variables()
    if isinstance(f, Not):
        return free_variables(f.sub)
    if isinstance(f, (And, Or)):
        out: frozenset[Variable] = frozenset()
        for c in f.children:
            out |= free_variables(c)
        return out
    return free_variables(f.body) - {f.var}


def bound_variables(f: Formula) -> frozenset[Variable]:
    if isinstance(f, (BoolConst, Atom)):
        return frozenset()
    if isinstance(f, Not):
        return bound_variables(f.sub)
    if isinstance(f, (And, Or)):
        out: frozenset[Variable] = frozenset()
        for c in f.children:
            out |= bound_variables(c)
        return out
    return bound_variables(f.body) | {f.var}


def all_atoms(f: Formula) -> Iterator[Atom]:
    if isinstance(f, Atom):
        yield f
    elif isinstance(f, Not):
        yield from all_atoms(f.sub)
    elif isinstance(f, (And, Or)):
        for c in f.children:
            yield from all_atoms(c)
    elif isinstance(f, (Exists, Forall)):
        yield from all_atoms(f.body)


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, (Exists, Forall)):
        return False
    if isinstance(f, Not):
        return is_quantifier_free(f.sub)
    if isinstance(f, (And, Or)):
        return all(is_quantifier_free(c) for c in f.children)
    return True


def check_mode(f: Formula, mode: TheoryMode) -> None:
    """Reject atoms and variables that the theory mode does not provide."""
    if mode is TheoryMode.OVS:
        for a in all_atoms(f):
            if a.kind not in (AtomKind.HOME_EQ, AtomKind.HOME_LT):
                raise ModeError(f"{a.kind.value} atom is not part of the one-sorted theory")
        for v in free_variables(f) | bound_variables(f):
            if v.sort is Sort.QUOTIENT:
                raise ModeError("quotient-sort variables are not part of the one-sorted theory")
    elif mode is TheoryMode.POVS:
        for a in all_atoms(f):
            if a.kind is AtomKind.QUOT_PREC:
                raise ModeError("prec atoms require theory mode povs-prec")


def substitute(f: Formula, v: Variable, t: Term) -> Formula:
    """Replace every free occurrence of v by t, renormalizing all terms."""
    if v.sort is not t.sort:
        raise SortError(f"cannot substitute {t.sort.value} term for {v}")
    t_vars = t.variables()
    captured = bound_variables(f) & t_vars
    if captured:
        raise CaptureError(f"substitution would capture {sorted(x.name for x in captured)}")

    def walk(g: Formula) -> Formula:
        if isinstance(g, BoolConst):
            return g
        if isinstance(g, Atom):
            return _substitute_atom(g, v, t)
        if isinstance(g, Not):
            return make_not(walk(g.sub))
        if isinstance(g, And):
            return make_and(walk(c) for c in g.children)
        if isinstance(g, Or):
            return make_or(walk(c) for c in g.children)
        if g.var == v:
            return g
        body = walk(g.body)
        return type(g)(g.var, body)

    return walk(f)


def ground(
    f: Formula, keep: Collection[Variable], assignment: Assignment | None
) -> Formula:
    """Substitute the assigned value of every free variable outside keep."""
    assignment = assignment or {}
    for var in sorted(free_variables(f), key=lambda w: w.sort_key()):
        if var in keep:
            continue
        if var not in assignment:
            raise NotGroundError(f"{var} is not bound by the assignment")
        f = substitute(f, var, TERM_CLASS[var.sort].from_element(assignment[var]))
    return f


def _substitute_atom(a: Atom, v: Variable, t: Term) -> Atom:
    if a.payload.coeff(v) == 0:
        return a
    return _ATOM_FACTORY[a.kind](a.payload.substitute(v, t))


def rename_variable(f: Formula, old: Variable, new: Variable) -> Formula:
    return substitute(f, old, TERM_CLASS[old.sort].from_variable(new))


def standardize(f: Formula) -> Formula:
    """Rename bound variables so they are distinct from each other and from free ones."""
    used = {v for v in free_variables(f)}
    next_index = {
        Sort.HOME: max((v.index for v in used if v.sort is Sort.HOME), default=-1) + 1,
        Sort.QUOTIENT: max((v.index for v in used if v.sort is Sort.QUOTIENT), default=-1) + 1,
    }

    def fresh(sort: Sort) -> Variable:
        v = Variable(sort, next_index[sort])
        next_index[sort] += 1
        return v

    def walk(g: Formula) -> Formula:
        if isinstance(g, (BoolConst, Atom)):
            return g
        if isinstance(g, Not):
            return make_not(walk(g.sub))
        if isinstance(g, And):
            return make_and(walk(c) for c in g.children)
        if isinstance(g, Or):
            return make_or(walk(c) for c in g.children)
        var, body = g.var, g.body
        if var in used:
            new = fresh(var.sort)
            body = rename_variable(body, var, new)
            var = new
        used.add(var)
        body = walk(body)
        return type(g)(var, body)

    return walk(f)


def nnf(f: Formula, positive: bool = True) -> Formula:
    """Negation normal form over quantifier-free input.

    Negated order atoms are expanded into positive disjunctions; negated
    equations and membership atoms stay as negative literals.
    """
    if isinstance(f, BoolConst):
        return f if positive else make_not(f)
    if isinstance(f, Atom):
        if positive:
            return f
        if f.kind is AtomKind.HOME_LT:
            return make_or([home_lt(-f.payload), home_eq(f.payload)])
        if f.kind is AtomKind.QUOT_PREC:
            return make_or([quot_prec(-f.payload), quot_eq(f.payload)])
        return Not(f)
    if isinstance(f, Not):
        return nnf(f.sub, not positive)
    if isinstance(f, And):
        parts = [nnf(c, positive) for c in f.children]
        return make_and(parts) if positive else make_or(parts)
    if isinstance(f, Or):
        parts = [nnf(c, positive) for c in f.children]
        return make_or(parts) if positive else make_and(parts)
    raise QuantifiedInputError("negation normal form requires a quantifier-free formula")


def is_literal(f: Formula) -> bool:
    return isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.sub, Atom))


def literal_parts(lit: Formula) -> tuple[Atom, bool]:
    """The atom of a literal and whether it occurs unnegated."""
    if isinstance(lit, Atom):
        return lit, True
    if isinstance(lit, Not) and isinstance(lit.sub, Atom):
        return lit.sub, False
    raise NotConjunctionError(f"not a literal: {lit}")


def _absorb(clauses: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """The clauses that contain no other clause, shortest first."""
    kept: list[frozenset[int]] = []
    for clause in sorted(clauses, key=len):
        if not any(other <= clause for other in kept):
            kept.append(clause)
    return kept


def dnf_clauses(f: Formula) -> list[tuple[Formula, ...]]:
    """Disjunctive normal form as a list of literal tuples.

    [] encodes false and [()] encodes true; contradictory clauses are
    pruned and clauses absorbed by a subset clause are dropped.
    Distribution works over interned literal ids, so the set algebra
    runs on integers rather than on structural formula comparisons.
    Absorbing after every conjunct gives the same final clauses as
    absorbing once at the end: if a is a subset of a' and a' | b is
    consistent, so is a | b, and it is a subset of a' | b.  Literals
    and clauses are ordered by their text, each literal rendered once.
    """
    g = nnf(f)
    ids: dict[Formula, int] = {}
    literals: list[Formula] = []
    negation: list[int] = []  # id of the complementary literal, or -1

    def intern(lit: Formula) -> int:
        got = ids.get(lit)
        if got is None:
            got = len(literals)
            ids[lit] = got
            literals.append(lit)
            partner = ids.get(make_not(lit))
            negation.append(-1 if partner is None else partner)
            if partner is not None:
                negation[partner] = got
        return got

    def walk(h: Formula) -> list[frozenset[int]]:
        if h == TRUE:
            return [frozenset()]
        if h == FALSE:
            return []
        if is_literal(h):
            return [frozenset([intern(h)])]
        if isinstance(h, Or):
            out = []
            seen_here = set()
            for c in h.children:
                for clause in walk(c):
                    if clause not in seen_here:
                        seen_here.add(clause)
                        out.append(clause)
            return out
        if isinstance(h, And):
            acc: list[frozenset[int]] = [frozenset()]
            for c in h.children:
                branch = walk(c)
                merged = set()
                for a in acc:
                    for b in branch:
                        u = a | b
                        if u in merged:
                            continue
                        if any(negation[i] in u for i in b if negation[i] >= 0):
                            continue
                        merged.add(u)
                acc = _absorb(merged)
                if not acc:
                    return []
            return acc
        raise QuantifiedInputError("disjunctive normal form requires a quantifier-free formula")

    kept = _absorb(walk(g))
    text = [str(lit) for lit in literals]
    ordered = sorted(
        (sorted(clause, key=text.__getitem__) for clause in kept),
        key=lambda clause: [text[i] for i in clause],
    )
    return [tuple(literals[i] for i in clause) for clause in ordered]


def clauses_to_formula(clauses: Sequence[Sequence[Formula]]) -> Formula:
    return make_or(make_and(clause) for clause in clauses)


def to_dnf(f: Formula) -> Formula:
    """An equivalent disjunction of conjunctions of literals."""
    if not is_quantifier_free(f):
        raise QuantifiedInputError("to_dnf requires a quantifier-free formula")
    return clauses_to_formula(dnf_clauses(f))


def simplify(f: Formula) -> Formula:
    """Fold ground atoms, flatten connectives, and prune duplicates."""
    if isinstance(f, BoolConst):
        return f
    if isinstance(f, Atom):
        return _fold_ground(f)
    if isinstance(f, Not):
        return make_not(simplify(f.sub))
    if isinstance(f, And):
        return make_and(simplify(c) for c in f.children)
    if isinstance(f, Or):
        return make_or(simplify(c) for c in f.children)
    body = simplify(f.body)
    if isinstance(body, BoolConst):
        return body
    return type(f)(f.var, body)


def _fold_ground(a: Atom) -> Formula:
    if not a.payload.is_ground():
        return a
    return TRUE if eval_atom(a, {}) else FALSE
