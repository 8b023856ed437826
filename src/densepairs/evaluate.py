"""Tarskian evaluation of quantifier-free formulas over the reference model."""

from __future__ import annotations

from typing import Mapping, Union

from .errors import QuantifiedInputError
from .formulas import And, Atom, BoolConst, Exists, Forall, Formula, Not, Or, eval_atom
from .model import ModelElement, QuotientElement
from .terms import Variable

Assignment = Mapping[Variable, Union[ModelElement, QuotientElement]]


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
