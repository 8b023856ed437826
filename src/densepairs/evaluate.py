"""Tarskian evaluation of quantifier-free formulas over the reference model."""

from __future__ import annotations

from typing import Mapping, Union

from .errors import QuantifiedInputError
from .formulas import And, Atom, AtomKind, BoolConst, Exists, Forall, Formula, Not, Or
from .model import ModelElement, QuotientElement
from .terms import Variable

Assignment = Mapping[Variable, Union[ModelElement, QuotientElement]]


def eval_atom(atom: Atom, assignment: Assignment) -> bool:
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


def eval_formula(f: Formula, assignment: Assignment) -> bool:
    """Truth of a quantifier-free formula under a sort-respecting assignment."""
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, Atom):
        return eval_atom(f, assignment)
    if isinstance(f, Not):
        return not eval_formula(f.sub, assignment)
    if isinstance(f, And):
        return all(eval_formula(c, assignment) for c in f.children)
    if isinstance(f, Or):
        return any(eval_formula(c, assignment) for c in f.children)
    if isinstance(f, (Exists, Forall)):
        raise QuantifiedInputError("eval_formula requires a quantifier-free formula")
    raise TypeError(f"not a formula: {f!r}")
