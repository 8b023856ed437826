"""Two-sorted first-order formulas and their Boolean normal forms.

Atoms are stored one-sided: ``t = 0``, ``t < 0``, ``t in Q`` for home
terms and ``s = 0``, ``s prec 0`` for quotient terms, with the payload
rescaled so that its leading coefficient is a unit (`make_atom`).  Two
tables state the language: `KINDS` each sort's equation and order kinds,
`LANGUAGE` each theory mode's atom kinds.  Negation normal
form additionally rewrites negated order atoms into positive ones
(``not (t < 0)`` becomes ``-t < 0 or t = 0``), so after DNF a
conjunction carries only strict bounds, (dis)equations, and subspace
membership literals -- the shape the elimination and decomposition
passes consume.  DNF distributes over the tree `nnf` builds, so
`make_and` and `make_or` are the one place the junction rules apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from math import gcd
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

    # hash by identity, in C, as `AtomKind` does: `LANGUAGE[mode]` then runs no Python code
    __hash__ = object.__hash__


class AtomKind(Enum):
    HOME_EQ = "home_eq"
    HOME_LT = "home_lt"
    IN_Q = "in_q"
    QUOT_EQ = "quot_eq"
    QUOT_PREC = "quot_prec"

    # hash by identity, in C: `Enum.__hash__` is Python code that each atom built would run
    __hash__ = object.__hash__


# reading an Enum member off its class is slow, so hot paths read these aliases
_HOME_EQ, _HOME_LT, _IN_Q = AtomKind.HOME_EQ, AtomKind.HOME_LT, AtomKind.IN_Q
_QUOT_EQ, _QUOT_PREC = AtomKind.QUOT_EQ, AtomKind.QUOT_PREC
_HOME_KINDS = (_HOME_EQ, _HOME_LT, _IN_Q)

# each sort's (equation kind, order kind); the other kinds, Q and the quotient
# kinds on a home variable, constrain only its coset
KINDS = {Sort.HOME: (_HOME_EQ, _HOME_LT), Sort.QUOTIENT: (_QUOT_EQ, _QUOT_PREC)}
# an order kind -> its sort's equation kind: not (t < 0) is -t < 0 or t = 0
_ORDER = {order: eq for eq, order in KINDS.values()}
# each theory mode's atom kinds, the symbols its language has
LANGUAGE = {
    TheoryMode.OVS: (_HOME_EQ, _HOME_LT),
    TheoryMode.POVS: (_HOME_EQ, _HOME_LT, _IN_Q, _QUOT_EQ),
    TheoryMode.POVS_PREC: (_HOME_EQ, _HOME_LT, _IN_Q, _QUOT_EQ, _QUOT_PREC),
}


class Formula:
    """Base class of the frozen dataclass nodes below.  A node hashes once,
    at construction, from its fields, a child by the hash it stored; so a
    hash costs one step per node however deep the tree is.  The `_plan`
    slot stays empty until the node is first evaluated, then holds what
    evaluation compiled from it (see `evaluate.eval_formula`; an atom's
    payload is evaluated straight from its row).  An atom's `_reading`
    slot likewise stays empty until a witness oracle first solves it for a
    bound variable, then holds what the search reads off it for that
    variable (see `oracles._read`), and its `_root` slot until it is first
    evaluated, then holds the root of an atom in one variable, or None
    (see `eval_atom`).  The `_mode` slot holds the theory mode that `admit`
    returned the node for, so admitting it to that mode again is free.
    Equality, hashing and copies ignore all four."""

    __slots__ = ("_hash", "_plan", "_mode")

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
    _reading: tuple = field(init=False, repr=False)
    _root: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        kind, payload = self.kind, self.payload
        if (kind in _HOME_KINDS) != isinstance(payload, HomeTerm):
            raise SortError(f"{kind.value} atom with {type(payload).__name__} payload")
        object.__setattr__(self, "_hash", hash((Atom, kind, payload)))

    def text(self, positive: bool = True) -> str:
        """The atom or its negation as `parser.parse` reads it, written from
        the payload row (`Term.sides`): the positive summands left of the
        relation, the negated negative ones right of it."""
        kind = self.kind
        if kind is _IN_Q:
            return f"{'' if positive else '!'}Q({self.payload})"
        if kind is _QUOT_EQ and self.payload.is_zero():
            left, right = "pi(0)", "0"  # the home-sort "0 = 0" would not read back
        else:
            left, right = self.payload.sides()
        rel = "<" if kind is _HOME_LT else "prec" if kind is _QUOT_PREC else "=" if positive else "!="
        return f"{left} {rel} {right}"


@_node
class Not(Formula):
    sub: Formula

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((Not, self.sub)))


@_node
class _Junction(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        children = self.children
        assert len(children) >= 2, f"{type(self).__name__} requires at least two children"
        object.__setattr__(self, "_hash", hash((type(self), children)))


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
_NEGATED_TEXT = (_QUOT_EQ, _IN_Q)


def literal_text(lit: Formula) -> str:
    """The text `render` writes for a literal, read off its atom alone."""
    if type(lit) is Atom:
        return lit.text()
    atom = lit.sub
    return atom.text(positive=False) if atom.kind in _NEGATED_TEXT else f"!({atom.text()})"


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
        elif is_literal(g):
            out.append(literal_text(g))
        else:
            return connective(g)

    traverse(step, f)
    return "".join(out)


def make_atom(kind: AtomKind, t: Term) -> Atom:
    """The atom of kind on t, rescaled so its lead coefficient is +1: an
    equation or membership atom may be rescaled by any nonzero rational, an
    order atom only by a positive one, so its lead becomes +1 or -1."""
    return Atom(kind, t.normalized(kind not in _ORDER))


# the atom factory of each kind, in the order `AtomKind` lists them
home_eq, home_lt, in_q, quot_eq, quot_prec = (partial(make_atom, kind) for kind in AtomKind)


def quotient_atom(a: Atom, names: dict[Variable, Variable]) -> Atom:
    """The quotient-sort atom that says what the coset atom a says, its
    variables renamed by names: Q(t) is pi(t) = 0, and a quotient atom
    says it already."""
    if a.kind is _IN_Q:
        return make_atom(_QUOT_EQ, QuotientTerm.project_term(a.payload).rename(names))
    return make_atom(a.kind, a.payload.rename(names))


def substitute_atom(a: Atom, v: Variable, t: Term) -> Atom:
    """a with t for v, renormalized; a itself when v does not occur in it."""
    return make_atom(a.kind, a.payload.substitute(v, t)) if a.payload.coeff_sign(v) else a


def eval_atom(atom: Atom, assignment: Assignment) -> bool:
    """Truth of an atom under an assignment.  An atom in one variable v, on
    the payload (a*v + n)/d, is read against its root -n/a (`_root_of`):
    `=` by equal canonical rows, `Q` and a quotient equation on a home v by
    equal irrational parts, `<` by the sign of v - root and `prec` by the
    sign of its lowest radicand's coefficient, each matched against the
    sign of a.  Any other atom, and one whose v is unbound or bound to a
    value of the wrong class, is decided on the integer numerators of its
    payload's value (`Term.numerators`, which raises the error; their
    positive denominator keeps zero pattern and sign): by a zero test for
    `=` and `Q`, the integer sign for `<` and the lowest radicand's
    coefficient for `prec`.  `fold_ground` and `eval_formula` use it."""
    try:
        root = atom._root
    except AttributeError:
        root = _root_of(atom)
    if root is not None:
        v, test, side, d, n = root
        try:
            x = assignment[v]
        except KeyError:
            x = None
        if type(x) is v._element:
            e, m = x._d, x._n
            if test is _HOME_EQ:
                return e == d and m == n
            if test is _IN_Q:  # n has no key 0: compare the irrational parts
                if len(m) - (0 in m) != len(n):
                    return False
                for k, c in n.items():
                    if m.get(k, 0) * d != c * e:
                        return False
                return True
            diff = {}  # x - root over e * d, cross-multiplied
            for k, c in m.items():
                diff[k] = c * d
            for k, c in n.items():
                diff[k] = diff.get(k, 0) - c * e
            if test is _HOME_LT:
                return int_sign(diff.items()) == side
            diff.pop(0, None)  # pi kills the rational part
            return lead_sign(diff) == side
    nums = atom.payload.numerators(assignment)[1]
    kind = atom.kind
    if kind is _HOME_LT:
        return int_sign(nums.items()) < 0
    if kind is _QUOT_PREC:
        return lead_sign(nums) < 0
    if kind is _IN_Q:
        for k, n in nums.items():
            if k and n:
                return False
        return True
    return not any(nums.values())


def _root_of(atom: Atom) -> tuple | None:
    """What `eval_atom` reads an atom in one variable v against, kept on the
    atom: (v, the kind whose test decides it, the sign of v - root under
    which it holds, the canonical row (d, n) of the root -n/a of its payload
    (a*v + n)/d), the row computed on integers; for `Q` and a quotient
    equation on a home v, whose test is equal irrational parts, n keeps only
    those.  None for an atom with no variable or with several."""
    payload = atom.payload
    root = None
    if len(payload._v) == 1:
        ((v, a),) = payload._v.items()
        n = payload._n
        g = gcd(a, *n.values())
        s = -1 if a > 0 else 1  # a * (v - root) < 0 exactly when v - root has sign s
        n = {k: s * c // g for k, c in n.items()}
        test = atom.kind
        if test is _QUOT_EQ:
            test = _HOME_EQ if v.sort is Sort.QUOTIENT else _IN_Q
        if test is _IN_Q:
            n.pop(0, None)
        root = (v, test, s, abs(a) // g, n)
    object.__setattr__(atom, "_root", root)
    return root


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
    negated = []  # g for each kept child Not(g)
    for c in children:
        for item in c.children if type(c) is cls else (c,):
            kind = type(item)
            if kind is BoolConst:
                if item.value is absorbing.value:
                    return absorbing
                continue
            if item not in seen:
                seen.add(item)
                flat.append(item)
                if kind is Not:
                    negated.append(item.sub)
    # a complementary pair always has a member Not(g) with g in seen
    if any(g in seen for g in negated):
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
        names = [x.name for x in sorted(captured, key=Variable.sort_key)]
        raise CaptureError(f"substitution would capture {names}")

    return rewrite(f, lambda a: substitute_atom(a, v, t), lambda g: g if g.var == v else rebuild(g))


def check_parameters(variables: Iterable[Variable], assignment: Assignment) -> list[Variable]:
    """The variables in sort order, once each is checked to be bound to a
    value of its sort: the first that is not raises NotGroundError if
    unbound, else TypeError ("x2 is assigned a int, not a ModelElement")."""
    ordered = sorted(variables, key=Variable.sort_key)
    for var in ordered:
        if var not in assignment:
            raise NotGroundError(f"{var} is not bound by the assignment")
        value, want = assignment[var], var._element
        if type(value) is not want:
            raise TypeError(f"{var} is assigned a {type(value).__name__}, not a {want.__name__}")
    return ordered


def ground(
    f: Formula, keep: Collection[Variable], assignment: Assignment | None
) -> Formula:
    """Substitute the assigned value of every free variable outside keep,
    each checked by `check_parameters` first."""
    assignment = assignment or {}
    for var in check_parameters(free_variables(f).difference(keep), assignment):
        f = substitute(f, var, TERM_CLASS[var.sort].from_element(assignment[var]))
    return f


def _foreign_symbol(g: Formula, mode: TheoryMode) -> str | None:
    """The symbol of node g, as written, that the language of `mode` lacks, if any."""
    if isinstance(g, (Exists, Forall)):
        return g.var.name if mode is TheoryMode.OVS and g.var.sort is Sort.QUOTIENT else None
    if not isinstance(g, Atom) or g.kind in LANGUAGE[mode]:
        return None
    if g.kind is _QUOT_PREC:
        return "prec"
    if g.kind is _IN_Q:
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
    each bound variable's name from its innermost binder.  The node
    returned is marked with the mode, and admitting a node so marked to
    that mode returns it at once: it is admitted already.
    """
    if getattr(f, "_mode", None) is mode:
        return f
    nodes, used, binders = _scan(f)
    if mode is not TheoryMode.POVS_PREC:
        for g in nodes:
            if symbol := _foreign_symbol(g, mode):
                raise ModeError(f"{symbol} is not in the language of theory mode {mode.value}")
    if len(set(binders)) == len(binders) and used.isdisjoint(binders):
        object.__setattr__(f, "_mode", mode)
        return f  # nothing to rename
    next_index = {sort: fresh_variable(sort, used).index for sort in Sort}
    names: dict[Variable, Variable] = {}

    def rename(a):
        if all(names.get(w, w) == w for w in a.payload.variables()):
            return a
        return make_atom(a.kind, a.payload.rename(names))

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

    g = rewrite(f, rename, binder)
    object.__setattr__(g, "_mode", mode)
    return g


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
        if eq := _ORDER.get(g.kind):
            return make_or([make_atom(g.kind, -g.payload), make_atom(eq, g.payload)])
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
    pruned and clauses absorbed by a subset clause are dropped.  The
    clauses distribute over the tree `nnf` builds, so `make_and` and
    `make_or` have applied their rules (a disjunction holding a literal
    and its complement is true) before any clause is made.  Distribution
    works over literal ids: atoms are numbered as first met, the k-th
    atom's literal has id 2k and its negation 2k + 1, so a complement is
    `id ^ 1`.  Absorbing after every conjunct gives the same final clauses
    as absorbing once at the end: if a is a subset of a' and a' | b is
    consistent, so is a | b, and it is a subset of a' | b.  Literals and
    clauses are ordered by the text `literal_text` writes, which is the
    text `render` writes.
    """
    numbers: dict[Atom, int] = {}  # each atom -> its number, in the order met
    literals: dict[int, Formula] = {}  # literal id -> the first literal met with it

    def literal(lit: Formula) -> list[frozenset[int]]:
        if type(lit) is Atom:
            got = 2 * numbers.setdefault(lit, len(numbers))
        else:
            got = 2 * numbers.setdefault(lit.sub, len(numbers)) + 1
        literals.setdefault(got, lit)
        return [frozenset((got,))]

    def connective(children, is_or: bool):
        if is_or:
            out: dict[frozenset[int], None] = {}  # the children's clauses, first copies only
            for c in children:
                out.update(dict.fromkeys((yield c)))
            return list(out)
        acc: list[frozenset[int]] = [frozenset()]  # the clauses so far
        for c in children:
            clauses = yield c
            merged = set()
            for a in acc:
                for b in clauses:
                    u = a | b
                    if u not in merged and not any(i ^ 1 in u for i in b):
                        merged.add(u)
            acc = _absorb(merged)
            if not acc:
                break
        return acc

    def step(g):
        kind = type(g)
        if kind is And or kind is Or:
            return connective(g.children, kind is Or)
        if kind is BoolConst:
            return [frozenset()] if g.value else []
        return literal(g)

    kept = _absorb(traverse(step, nnf(f)))
    if len(literals) > 1:  # with one literal there is at most one clause, and nothing to order
        text = {i: literal_text(lit) for i, lit in literals.items()}
        kept = sorted(
            (sorted(clause, key=text.__getitem__) for clause in kept),
            key=lambda clause: [text[i] for i in clause],
        )
    return [tuple(literals[i] for i in clause) for clause in kept]


def to_dnf(f: Formula) -> Formula:
    """An equivalent disjunction of conjunctions of literals."""
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
