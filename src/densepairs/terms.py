"""Linear terms over the two sorts, kept in normal form.

A home term is a rational coefficient map over home variables plus a
constant element of the model; a quotient term is a coefficient map over
quotient variables, a single aggregated application of the quotient map
to a home combination, and a quotient constant.  Every constructor
normalizes, so two terms denote the same affine function exactly when
they are structurally equal.  The quotient map is linear, which is what
justifies folding nested/multiple applications into one and splitting
the constant out of the pushed part.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Union

from .errors import SortError, UnboundVariableError
from .model import (
    ModelElement,
    QuotientElement,
    project,
    render_combination,
    section,
)


class Sort(Enum):
    HOME = "home"
    QUOTIENT = "quotient"


@dataclass(frozen=True)
class Variable:
    sort: Sort
    index: int

    @property
    def name(self) -> str:
        return ("x" if self.sort is Sort.HOME else "u") + str(self.index)

    def sort_key(self) -> tuple[str, int]:
        return (self.sort.value, self.index)

    def __str__(self) -> str:
        return self.name


def hvar(index: int) -> Variable:
    return Variable(Sort.HOME, index)


def qvar(index: int) -> Variable:
    return Variable(Sort.QUOTIENT, index)


def _clean_varmap(coeffs, sort: Sort) -> dict[Variable, Fraction]:
    out = {}
    for v, q in dict(coeffs).items():
        if v.sort is not sort:
            raise SortError(f"variable {v} is not of sort {sort.value}")
        q = Fraction(q)
        if q != 0:
            out[v] = q
    return out


class HomeTerm:
    """An affine combination a1*x_{i1} + ... + an*x_{in} + c over the home sort."""

    __slots__ = ("_coeffs", "_constant", "_hash")

    def __init__(self, coeffs=(), constant: ModelElement | Fraction | int = 0):
        self._coeffs = _clean_varmap(coeffs, Sort.HOME)
        if not isinstance(constant, ModelElement):
            constant = ModelElement.from_rational(Fraction(constant))
        self._constant = constant
        self._hash = None

    @classmethod
    def from_variable(cls, v: Variable) -> "HomeTerm":
        return cls({v: Fraction(1)})

    @classmethod
    def from_element(cls, a: ModelElement) -> "HomeTerm":
        return cls((), a)

    @property
    def coeffs(self) -> dict[Variable, Fraction]:
        return dict(self._coeffs)

    @property
    def constant(self) -> ModelElement:
        return self._constant

    def coeff(self, v: Variable) -> Fraction:
        return self._coeffs.get(v, Fraction(0))

    def variables(self) -> frozenset[Variable]:
        return frozenset(self._coeffs)

    def is_ground(self) -> bool:
        return not self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs and self._constant.is_zero()

    def without(self, v: Variable) -> "HomeTerm":
        return HomeTerm({w: q for w, q in self._coeffs.items() if w != v}, self._constant)

    def __add__(self, other: "HomeTerm") -> "HomeTerm":
        out = dict(self._coeffs)
        for v, q in other._coeffs.items():
            w = out.get(v, 0) + q
            if w:
                out[v] = w
            else:
                out.pop(v, None)
        return HomeTerm(out, self._constant + other._constant)

    def __sub__(self, other: "HomeTerm") -> "HomeTerm":
        return self + (-other)

    def __neg__(self) -> "HomeTerm":
        return self.scale(-1)

    def scale(self, q) -> "HomeTerm":
        q = Fraction(q)
        return HomeTerm({v: q * c for v, c in self._coeffs.items()}, self._constant.scale(q))

    def substitute(self, v: Variable, t: "HomeTerm") -> "HomeTerm":
        a = self.coeff(v)
        if a == 0:
            return self
        return self.without(v) + t.scale(a)

    def evaluate(self, assignment: Mapping[Variable, ModelElement]) -> ModelElement:
        value = self._constant
        for v, q in self._coeffs.items():
            try:
                value = value + assignment[v].scale(q)
            except KeyError:
                raise UnboundVariableError(f"{v} is unbound") from None
        return value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomeTerm)
            and self._coeffs == other._coeffs
            and self._constant == other._constant
        )

    def __hash__(self) -> int:
        if self._hash is None:
            items = tuple(sorted(self._coeffs.items(), key=lambda kv: kv[0].index))
            self._hash = hash(("HomeTerm", items, self._constant))
        return self._hash

    def __repr__(self) -> str:
        return f"HomeTerm({self._coeffs!r}, {self._constant!r})"

    def __str__(self) -> str:
        items: list[tuple[Fraction, str | None]] = [
            (q, v.name)
            for v, q in sorted(self._coeffs.items(), key=lambda kv: kv[0].index)
        ]
        items += [(q, None if k == 0 else f"r{k}") for k, q in self._constant.items()]
        return render_combination(items)


class QuotientTerm:
    """b1*u_{j1} + ... + bm*u_{jm} + pi(home combination) + quotient constant.

    The pushed home part carries no constant: the quotient map kills
    rational constants and moves the rest into the quotient constant.
    """

    __slots__ = ("_coeffs", "_pushed", "_constant", "_hash")

    def __init__(
        self,
        coeffs=(),
        pushed: HomeTerm | None = None,
        constant: QuotientElement | None = None,
    ):
        self._coeffs = _clean_varmap(coeffs, Sort.QUOTIENT)
        pushed = pushed if pushed is not None else HomeTerm()
        constant = constant if constant is not None else QuotientElement()
        self._constant = constant + project(pushed.constant)
        self._pushed = HomeTerm(pushed.coeffs)
        self._hash = None

    @classmethod
    def from_variable(cls, v: Variable) -> "QuotientTerm":
        return cls({v: Fraction(1)})

    @classmethod
    def from_element(cls, w: QuotientElement) -> "QuotientTerm":
        return cls((), None, w)

    @classmethod
    def project_term(cls, t: HomeTerm) -> "QuotientTerm":
        """The image of a home term under the quotient map."""
        return cls((), t)

    @property
    def coeffs(self) -> dict[Variable, Fraction]:
        return dict(self._coeffs)

    @property
    def pushed(self) -> HomeTerm:
        return self._pushed

    @property
    def constant(self) -> QuotientElement:
        return self._constant

    def coeff(self, v: Variable) -> Fraction:
        if v.sort is Sort.QUOTIENT:
            return self._coeffs.get(v, Fraction(0))
        return self._pushed.coeff(v)

    def variables(self) -> frozenset[Variable]:
        return frozenset(self._coeffs) | self._pushed.variables()

    def is_ground(self) -> bool:
        return not self._coeffs and self._pushed.is_ground()

    def is_zero(self) -> bool:
        return not self._coeffs and self._pushed.is_zero() and self._constant.is_zero()

    def without(self, v: Variable) -> "QuotientTerm":
        if v.sort is Sort.QUOTIENT:
            return QuotientTerm(
                {w: q for w, q in self._coeffs.items() if w != v},
                self._pushed,
                self._constant,
            )
        return QuotientTerm(self._coeffs, self._pushed.without(v), self._constant)

    def __add__(self, other: "QuotientTerm") -> "QuotientTerm":
        out = dict(self._coeffs)
        for v, q in other._coeffs.items():
            w = out.get(v, 0) + q
            if w:
                out[v] = w
            else:
                out.pop(v, None)
        return QuotientTerm(out, self._pushed + other._pushed, self._constant + other._constant)

    def __sub__(self, other: "QuotientTerm") -> "QuotientTerm":
        return self + (-other)

    def __neg__(self) -> "QuotientTerm":
        return self.scale(-1)

    def scale(self, q) -> "QuotientTerm":
        q = Fraction(q)
        return QuotientTerm(
            {v: q * c for v, c in self._coeffs.items()},
            self._pushed.scale(q),
            self._constant.scale(q),
        )

    def substitute_home(self, v: Variable, t: HomeTerm) -> "QuotientTerm":
        a = self._pushed.coeff(v)
        if a == 0:
            return self
        return QuotientTerm(self._coeffs, self._pushed.without(v) + t.scale(a), self._constant)

    def substitute_quotient(self, v: Variable, t: "QuotientTerm") -> "QuotientTerm":
        a = self._coeffs.get(v, 0)
        if a == 0:
            return self
        return self.without(v) + t.scale(a)

    def evaluate(self, assignment) -> QuotientElement:
        value = self._constant + project(self._pushed.evaluate(assignment))
        for v, q in self._coeffs.items():
            try:
                value = value + assignment[v].scale(q)
            except KeyError:
                raise UnboundVariableError(f"{v} is unbound") from None
        return value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuotientTerm)
            and self._coeffs == other._coeffs
            and self._pushed == other._pushed
            and self._constant == other._constant
        )

    def __hash__(self) -> int:
        if self._hash is None:
            items = tuple(sorted(self._coeffs.items(), key=lambda kv: kv[0].index))
            self._hash = hash(("QuotientTerm", items, self._pushed, self._constant))
        return self._hash

    def __repr__(self) -> str:
        return f"QuotientTerm({self._coeffs!r}, {self._pushed!r}, {self._constant!r})"

    def __str__(self) -> str:
        items: list[tuple[Fraction, str | None]] = [
            (q, v.name)
            for v, q in sorted(self._coeffs.items(), key=lambda kv: kv[0].index)
        ]
        inner = self._pushed + HomeTerm.from_element(section(self._constant))
        if not inner.is_zero():
            items.append((Fraction(1), f"pi({inner})"))
        return render_combination(items)


Term = Union[HomeTerm, QuotientTerm]


def term_sort(t: Term) -> Sort:
    return Sort.HOME if isinstance(t, HomeTerm) else Sort.QUOTIENT
