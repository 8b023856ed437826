"""Tarskian evaluation of quantifier-free formulas over the reference model."""

from __future__ import annotations

from typing import Mapping, Union

from .errors import QuantifiedInputError
from .formulas import And, Atom, BoolConst, Exists, Forall, Formula, Not, Or, eval_atom, traverse
from .model import ModelElement, QuotientElement
from .terms import Variable

Assignment = Mapping[Variable, Union[ModelElement, QuotientElement]]


def eval_formula(f: Formula, assignment: Assignment) -> bool:
    """Truth of a quantifier-free formula under a sort-respecting assignment."""

    def step(g):
        if isinstance(g, Atom):
            return eval_atom(g, assignment)
        if isinstance(g, BoolConst):
            return g.value
        return _connective(g)

    return traverse(step, f)


def _connective(g: Formula):
    """A connective's truth from its children's, left to right up to the first that decides it."""
    if isinstance(g, Not):
        return not (yield g.sub)
    if isinstance(g, (And, Or)):
        decisive = isinstance(g, Or)
        for c in g.children:
            if bool((yield c)) is decisive:
                return decisive
        return not decisive
    if isinstance(g, (Exists, Forall)):
        raise QuantifiedInputError("eval_formula requires a quantifier-free formula")
    raise TypeError(f"not a formula: {g!r}")
