"""Tarskian evaluation of quantifier-free formulas over the reference model.

A formula is compiled once, on its first evaluation, into a flat plan kept
on the node: a tuple of (op, arg) instructions that one loop runs left to
right with a single truth value in hand.  A junction's children run in
order, each but the last followed by a jump to the junction's end taken
when the value decides it (false for a conjunction, true for a
disjunction), so evaluation stops where the walk over the tree would.
A ground atom is decided when the plan is compiled, and constants fold
through the connectives with the same left-to-right meaning: a neutral
constant is dropped, a deciding one ends its junction, and the junction
is that constant only when no child before it reads the assignment or
raises.  A quantifier or a non-formula compiles to an instruction that
raises when it is reached, and not before.  The loop (`run`) asks a given
function for each atom's truth, so evaluation under an assignment and a
reading of truths from a table (`decomposition.sign_table`) share it.  The
plan's atom instructions also list the atoms it can read, for readers
that need them without another walk; a ground atom is not among them,
and equal atoms are listed as one object, the first the walk meets, so
a reader keys them by identity and whatever an atom keeps from its first
reading serves each of its copies.
An atom is read by `formulas.eval_atom`: an atom in one variable against
its root, which the atom keeps from its first reading, so a probe builds
no numerator map; any other atom on the integer numerators of its value.
"""

from __future__ import annotations

from typing import Callable, Mapping, Union

from .errors import QuantifiedInputError
from .formulas import And, Atom, BoolConst, Exists, Forall, Formula, Not, Or, eval_atom, traverse
from .model import ModelElement, QuotientElement
from .terms import Variable

Assignment = Mapping[Variable, Union[ModelElement, QuotientElement]]

# the ops: value := atom's truth, value := constant, value := not value,
# jump to arg[1] when value is arg[0], raise arg[0](arg[1])
_ATOM, _CONST, _NOT, _JUMP, _FAIL = range(5)


def eval_formula(f: Formula, assignment: Assignment) -> bool:
    """Truth of a quantifier-free formula under a sort-respecting assignment."""
    return eval_atom(f, assignment) if type(f) is Atom else run(f, eval_atom, assignment)


def run(f: Formula, truth: Callable[[Atom, object], bool], at) -> bool:
    """Truth of a quantifier-free formula whose atoms read truth(atom, at)."""
    plan = _plan(f)
    value = False
    i, end = 0, len(plan)
    while i < end:
        op, arg = plan[i]
        i += 1
        if op is _ATOM:
            value = truth(arg, at)
        elif op is _JUMP:
            if value is arg[0]:
                i = arg[1]
        elif op is _NOT:
            value = not value
        elif op is _CONST:
            value = arg
        else:
            raise arg[0](arg[1])
    return value


def atoms(f: Formula) -> list[Atom]:
    """The atoms of a quantifier-free formula that its plan can read, in the
    order it reads them: ground atoms are decided when the plan is compiled.
    Equal atoms are one object, the first met, so `id` tells atoms apart."""
    return [arg for op, arg in _plan(f) if op is _ATOM]


def _plan(f) -> tuple:
    """The plan of f, compiled and kept on the node on first use."""
    plan = getattr(f, "_plan", None)
    if plan is None:
        plan = _compile(f)
        if isinstance(f, Formula):
            object.__setattr__(f, "_plan", plan)
    return plan


def _compile(f) -> tuple:
    """The plan of f, from one walk over it.  A step appends the code of its
    node and returns None, or appends nothing and returns the node's truth
    when no assignment can change it and reaching it raises nothing: a
    ground atom, decided here once, a constant, or a connective of these."""
    code: list = []
    shared: dict = {}  # each distinct atom -> the first equal atom the walk met

    def negation(g):
        value = yield g.sub
        if value is not None:
            return not value
        code.append((_NOT, None))

    def junction(g):
        decisive = isinstance(g, Or)
        jumps = []
        decided = False
        for c in g.children:
            value = yield c
            if value is None:
                jumps.append(len(code))
                code.append(None)  # the jump, once the end is known
            elif value is decisive:
                decided = True  # the children after a deciding constant are never reached
                break
        if not jumps:
            return decisive if decided else not decisive
        code.pop()  # the last child's value is the junction's, or the constant follows it
        jumps.pop()
        if decided:
            code.append((_CONST, decisive))
        for j in jumps:
            code[j] = (_JUMP, (decisive, len(code)))

    def step(g):
        if isinstance(g, Atom):
            if g.payload.is_ground():
                return eval_atom(g, {})
            code.append((_ATOM, shared.setdefault(g, g)))
        elif isinstance(g, BoolConst):
            return bool(g.value)
        elif isinstance(g, Not):
            return negation(g)
        elif isinstance(g, (And, Or)):
            return junction(g)
        elif isinstance(g, (Exists, Forall)):
            message = "eval_formula requires a quantifier-free formula"
            code.append((_FAIL, (QuantifiedInputError, message)))
        else:
            code.append((_FAIL, (TypeError, f"not a formula: {g!r}")))

    value = traverse(step, f)
    return tuple(code) if value is None else ((_CONST, value),)
