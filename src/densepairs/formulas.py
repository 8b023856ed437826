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
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Collection, Generator, Iterable, Iterator

from .errors import (
    CaptureError,
    ModeError,
    NotConjunctionError,
    NotGroundError,
    QuantifiedInputError,
    SortError,
)
from .model import int_sign, lead_sign
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


_ORDER_TEXT = {AtomKind.HOME_LT: "<", AtomKind.QUOT_PREC: "prec"}


class Formula:
    """Base class of the frozen dataclass nodes below.  A node hashes once,
    at construction, from its fields, a child by the hash it stored; so a
    hash costs one step per node however deep the tree is.  The `_plan`
    slot stays empty until the node is first evaluated, then holds what
    evaluation compiled from it (see `evaluate.eval_formula`; an atom
    keeps its compiled form on its payload instead); equality, hashing and
    copies ignore it."""

    __slots__ = ("_hash", "_plan")

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((type(self), self._fields())))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # pickle and copy rebuild the node: hash afresh, no plan
        return type(self), self._fields()

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self) or other._hash != self._hash:
            return False
        # field sequences still to compare, on a stack: equal trees may be deep
        pending = [(self._fields(), other._fields())]
        while pending:
            xs, ys = pending.pop()
            for x, y in zip(xs, ys):
                if x is y:
                    continue
                if isinstance(x, Formula):
                    if type(x) is not type(y) or x._hash != y._hash:
                        return False
                    pending.append((x._fields(), y._fields()))
                elif isinstance(x, tuple):  # a junction's children
                    if len(x) != len(y):
                        return False
                    pending.append((x, y))
                elif x != y:
                    return False
        return True

    def __str__(self) -> str:
        return render(self)


_node = dataclass(frozen=True, eq=False, slots=True)


@_node
class BoolConst(Formula):
    value: bool


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@_node
class Atom(Formula):
    kind: AtomKind
    payload: Term

    def __post_init__(self):
        want_home = self.kind in (AtomKind.HOME_EQ, AtomKind.HOME_LT, AtomKind.IN_Q)
        if want_home != isinstance(self.payload, HomeTerm):
            raise SortError(f"{self.kind.value} atom with {type(self.payload).__name__} payload")
        Formula.__post_init__(self)

    def text(self, positive: bool = True) -> str:
        """The atom or its negation as `parser.parse` reads it."""
        if self.kind is AtomKind.IN_Q:
            return f"{'' if positive else '!'}Q({self.payload})"
        if self.kind is AtomKind.QUOT_EQ and self.payload.is_zero():
            pos, neg = "pi(0)", "0"  # the home-sort "0 = 0" would not read back
        else:
            pos, neg = self.payload.halves()
        rel = _ORDER_TEXT.get(self.kind) or ("=" if positive else "!=")
        return f"{pos} {rel} {neg}"


@_node
class Not(Formula):
    sub: Formula


@_node
class _Junction(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        assert len(self.children) >= 2, f"{type(self).__name__} requires at least two children"
        Formula.__post_init__(self)


class And(_Junction):
    __slots__ = ()


class Or(_Junction):
    __slots__ = ()


@_node
class Exists(Formula):
    var: Variable
    body: Formula


@_node
class Forall(Formula):
    var: Variable
    body: Formula


def traverse(step: Callable[[Any], Any], root: Any) -> Any:
    """Run a walk over a formula on an explicit stack; nothing recurses.

    `step(item)` returns the value of `item`, or a generator that yields
    each item whose value it needs (usually a subformula), is sent that
    value back, and returns the value of `item` (or a generator to take
    over).  Code around a yield runs on the way down and back up, so a
    walk can carry state down and stop early."""
    stack: list[Generator] = []
    value = step(root)
    while True:
        if isinstance(value, GeneratorType):
            stack.append(value)
            value = None
        elif not stack:
            return value
        try:
            item = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            value = step(item)


def rebuild(g: Formula) -> Generator:
    """Rebuild g from the walked values of its subformulas, for a step to
    return; leaves come back unchanged.  A conjunction stops at the first
    false child and a disjunction at the first true one."""
    if isinstance(g, Not):
        return make_not((yield g.sub))
    if isinstance(g, (And, Or)):
        make, stop = (make_and, FALSE) if isinstance(g, And) else (make_or, TRUE)
        values = []
        for c in g.children:
            value = yield c
            if isinstance(value, BoolConst) and value == stop:
                return stop
            values.append(value)
        return make(values)
    if isinstance(g, (Exists, Forall)):
        return type(g)(g.var, (yield g.body))
    return g


# how tightly each connective binds (others: 3); looser children get parentheses
_BINDING = {Exists: 0, Forall: 0, Or: 1, And: 2}
# the negated atoms with a text of their own; others render as !(...)
_NEGATED_TEXT = (AtomKind.QUOT_EQ, AtomKind.IN_Q)


def render(f: Formula) -> str:
    """The text of a formula, in the grammar `parser.parse` reads."""
    out: list[str] = []

    def connective(g):
        if isinstance(g, (And, Or)):
            need, sep = (2, " & ") if isinstance(g, And) else (1, " | ")
            for i, c in enumerate(g.children):
                wrap = _BINDING.get(type(c), 3) < need
                out.append((sep if i else "") + ("(" if wrap else ""))
                yield c
                if wrap:
                    out.append(")")
        elif isinstance(g, (Exists, Forall)):
            out.append(f"{'E' if isinstance(g, Exists) else 'A'} {g.var}. ")
            yield g.body
        else:
            out.append("!(")
            yield g.sub
            out.append(")")

    def step(g):
        if isinstance(g, BoolConst):
            out.append("true" if g.value else "false")
        elif isinstance(g, Atom):
            out.append(g.text())
        elif isinstance(g, Not) and isinstance(g.sub, Atom) and g.sub.kind in _NEGATED_TEXT:
            out.append(g.sub.text(positive=False))
        else:
            return connective(g)

    traverse(step, f)
    return "".join(out)


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
    """Truth of an atom under an assignment, decided on the integer
    numerators of its payload's value (`Term.numerators`; their positive
    denominator keeps zero pattern and sign): by a zero test for `=` and
    `Q`, the integer sign for `<` and the lowest radicand's coefficient for
    `prec`.  `fold_ground` and `eval_formula` use it."""
    nums = atom.payload.numerators(assignment)[1]
    kind = atom.kind
    if kind is AtomKind.HOME_LT:
        return int_sign(nums.items()) < 0
    if kind is AtomKind.QUOT_PREC:
        return lead_sign(nums) < 0
    if kind is AtomKind.IN_Q:
        return not any(n for k, n in nums.items() if k)
    return not any(nums.values())


def make_not(f: Formula) -> Formula:
    if isinstance(f, BoolConst):
        return FALSE if f.value else TRUE
    if isinstance(f, Not):
        return f.sub
    return Not(f)


def _junction(cls: type, children: Iterable[Formula], absorbing: BoolConst) -> Formula:
    """The flattened And or Or of children without repeats or the neutral
    constant; `absorbing` (false for And) if it or a complementary pair occurs."""
    flat: list[Formula] = []
    seen = set()
    for c in children:
        for item in c.children if isinstance(c, cls) else (c,):
            if isinstance(item, BoolConst):
                if item.value is absorbing.value:
                    return absorbing
                continue
            if item not in seen:
                seen.add(item)
                flat.append(item)
    # a complementary pair always has a member Not(g) with g in seen
    if any(isinstance(item, Not) and item.sub in seen for item in flat):
        return absorbing
    if not flat:
        return make_not(absorbing)
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(flat))


def make_and(children: Iterable[Formula]) -> Formula:
    return _junction(And, children, FALSE)


def make_or(children: Iterable[Formula]) -> Formula:
    return _junction(Or, children, TRUE)


def _scan(f: Formula) -> tuple[list[Formula], set[Variable], list[Variable]]:
    """The nodes of f in pre-order, its free variables and each binder's variable."""
    nodes: list[Formula] = []
    free: set[Variable] = set()
    bound: list[Variable] = []
    in_scope: dict[Variable, int] = {}  # how many binders of each variable enclose the node

    def parts(g):
        if isinstance(g, (Exists, Forall)):
            bound.append(g.var)
            in_scope[g.var] = in_scope.get(g.var, 0) + 1
            yield g.body
            in_scope[g.var] -= 1
        else:
            for c in g.children if isinstance(g, (And, Or)) else (g.sub,):
                yield c

    def step(g):
        nodes.append(g)
        if isinstance(g, Atom):
            free.update(v for v in g.payload.variables() if not in_scope.get(v))
        elif not isinstance(g, BoolConst):
            return parts(g)

    traverse(step, f)
    return nodes, free, bound


def free_variables(f: Formula) -> frozenset[Variable]:
    return frozenset(_scan(f)[1])


def bound_variables(f: Formula) -> frozenset[Variable]:
    return frozenset(_scan(f)[2])


def all_atoms(f: Formula) -> Iterator[Atom]:
    return (g for g in _scan(f)[0] if isinstance(g, Atom))


def is_quantifier_free(f: Formula) -> bool:
    return not _scan(f)[2]


def all_variables(f: Formula) -> set[Variable]:
    """The free and the bound variables of f, from one scan."""
    _, free, bound = _scan(f)
    return free.union(bound)


def fresh_variable(sort: Sort, taken: Iterable[Variable]) -> Variable:
    """The variable of `sort` one index above every variable of that sort in `taken`."""
    return Variable(sort, max((v.index for v in taken if v.sort is sort), default=-1) + 1)


def rewrite(f: Formula, atom: Callable, quantifier: Callable) -> Formula:
    """Rebuild f bottom-up: an atom by `atom`, a quantifier node by the step
    `quantifier`, any other node by `rebuild`."""

    def step(g):
        if isinstance(g, Atom):
            return atom(g)
        return quantifier(g) if isinstance(g, (Exists, Forall)) else rebuild(g)

    return traverse(step, f)


def substitute(f: Formula, v: Variable, t: Term) -> Formula:
    """Replace every free occurrence of v by t, renormalizing all terms."""
    if v.sort is not t.sort:
        raise SortError(f"cannot substitute {t.sort.value} term for {v}")
    captured = bound_variables(f) & t.variables()
    if captured:
        raise CaptureError(f"substitution would capture {sorted(x.name for x in captured)}")

    def atom(a):
        return a if a.payload.coeff(v) == 0 else _ATOM_FACTORY[a.kind](a.payload.substitute(v, t))

    return rewrite(f, atom, lambda g: g if g.var == v else rebuild(g))


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


def _foreign_symbol(g: Formula, mode: TheoryMode) -> str | None:
    """The symbol of node g, as written, that the language of `mode` lacks, if any."""
    if isinstance(g, (Exists, Forall)):
        return g.var.name if mode is TheoryMode.OVS and g.var.sort is Sort.QUOTIENT else None
    if not isinstance(g, Atom) or g.kind in (AtomKind.HOME_EQ, AtomKind.HOME_LT):
        return None
    if g.kind is AtomKind.QUOT_PREC:
        return "prec"
    if mode is not TheoryMode.OVS:
        return None
    if g.kind is AtomKind.IN_Q:
        return "Q"
    # a quotient equation, named by its first symbol as rendered
    indices = sorted(v.index for v in g.payload.variables() if v.sort is Sort.QUOTIENT)
    return f"u{indices[0]}" if indices else "pi"


def admit(f: Formula, mode: TheoryMode) -> Formula:
    """f with its bound variables renamed apart, once its language is the mode's.

    The three theories differ only in their symbols, so this is the one
    check of a formula against a mode; the parser reads every symbol and
    the eliminator is mode-free.  A binder whose variable is taken (bound
    again, or free) gets the next untaken index of its sort; atoms read
    each bound variable's name from its innermost binder.
    """
    nodes, used, binders = _scan(f)
    if mode is not TheoryMode.POVS_PREC:
        for g in nodes:
            if symbol := _foreign_symbol(g, mode):
                raise ModeError(f"{symbol} is not in the language of theory mode {mode.value}")
    if len(set(binders)) == len(binders) and used.isdisjoint(binders):
        return f  # nothing to rename
    next_index = {sort: fresh_variable(sort, used).index for sort in Sort}
    names: dict[Variable, Variable] = {}

    def rename(a):
        if all(names.get(w, w) == w for w in a.payload.variables()):
            return a
        return _ATOM_FACTORY[a.kind](a.payload.rename(names))

    def binder(g):
        var = new = g.var
        while new in used:
            new = Variable(var.sort, next_index[var.sort])
            next_index[var.sort] += 1
        used.add(new)
        outer = names.get(var, var)
        names[var] = new
        body = yield g.body
        names[var] = outer
        return type(g)(new, body)

    return rewrite(f, rename, binder)


def nnf(f: Formula) -> Formula:
    """Negation normal form over quantifier-free input.

    Negated order atoms are expanded into positive disjunctions; negated
    equations and membership atoms stay as negative literals.
    """

    def connective(g, positive):
        if isinstance(g, Not):
            return (yield g.sub, not positive)
        if isinstance(g, (And, Or)):
            parts = []
            for c in g.children:
                parts.append((yield c, positive))
            return make_and(parts) if isinstance(g, And) == positive else make_or(parts)
        raise QuantifiedInputError("negation normal form requires a quantifier-free formula")

    def step(item):
        g, positive = item
        if isinstance(g, BoolConst):
            return g if positive else make_not(g)
        if not isinstance(g, Atom):
            return connective(g, positive)
        if positive:
            return g
        if g.kind is AtomKind.HOME_LT:
            return make_or([home_lt(-g.payload), home_eq(g.payload)])
        if g.kind is AtomKind.QUOT_PREC:
            return make_or([quot_prec(-g.payload), quot_eq(g.payload)])
        return Not(g)

    return traverse(step, (f, True))


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

    def connective(h):
        if isinstance(h, Or):
            out: dict[frozenset[int], None] = {}  # the children's clauses, first copies only
            for c in h.children:
                out.update(dict.fromkeys((yield c)))
            return list(out)
        acc: list[frozenset[int]] = [frozenset()]  # an And: nnf has refused any quantifier
        for c in h.children:
            branch = yield c
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

    def step(h):
        if isinstance(h, BoolConst):
            return [frozenset()] if h.value else []
        if is_literal(h):
            return [frozenset([intern(h)])]
        return connective(h)

    kept = _absorb(traverse(step, g))
    if len(literals) > 1:  # with one literal there is at most one clause, and nothing to order
        text = [str(lit) for lit in literals]
        kept = sorted(
            (sorted(clause, key=text.__getitem__) for clause in kept),
            key=lambda clause: [text[i] for i in clause],
        )
    return [tuple(literals[i] for i in clause) for clause in kept]


def to_dnf(f: Formula) -> Formula:
    """An equivalent disjunction of conjunctions of literals."""
    if not is_quantifier_free(f):
        raise QuantifiedInputError("to_dnf requires a quantifier-free formula")
    return make_or(make_and(clause) for clause in dnf_clauses(f))


def simplify(f: Formula) -> Formula:
    """Fold ground atoms, flatten connectives, and prune duplicates."""

    def binder(g):
        body = yield g.body
        return body if isinstance(body, BoolConst) else type(g)(g.var, body)

    return rewrite(f, fold_ground, binder)


def fold_ground(a: Atom) -> Formula:
    """A ground atom as its truth value; other atoms stay as they are."""
    if not a.payload.is_ground():
        return a
    return TRUE if eval_atom(a, {}) else FALSE
