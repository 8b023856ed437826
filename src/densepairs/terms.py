"""Linear terms over the two sorts, kept in normal form.

A term is one rational coefficient map over variables plus a constant.
A home term maps home variables and has a home constant.  A quotient term
maps quotient variables and, in the same map, home variables read under
the quotient map pi: since pi is linear, ``u1 + pi(2*x1) + pi(x2 + r3)``
is the form ``u1 + 2*pi(x1) + pi(x2)`` plus the quotient constant
``pi(r3)``, so nested and repeated applications fold into one.  Every
constructor normalizes, so two terms denote the same affine function
exactly when they are structurally equal.  Both sorts share one
implementation of the linear operations and of `substitute`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Mapping, Union

from .errors import SortError, UnboundVariableError
from .model import (
    ZERO,
    ModelElement,
    QuotientElement,
    add_scaled,
    project,
    render_combination,
    section,
)


class Sort(Enum):
    HOME = "home"
    QUOTIENT = "quotient"


@dataclass(frozen=True, slots=True)
class Variable:
    sort: Sort
    index: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # hash once, not on every lookup
        object.__setattr__(self, "_hash", hash((self.sort, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # a stored hash is only valid in the process that made it
        return Variable, (self.sort, self.index)

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


VALUE_CLASS: dict[Sort, type] = {Sort.HOME: ModelElement, Sort.QUOTIENT: QuotientElement}


class _Term:
    """A linear form: one coefficient map over variables plus a constant.

    Subclasses fix the sort of the value and of the constant.  Operations
    build results with `_make`, which trusts its map to be clean already:
    variables of the right sorts mapped to nonzero Fractions.  The `_form`
    slot stays empty until the term is first evaluated, then holds the
    integer form `numerators` runs; equality, hashing and copies ignore it.
    """

    __slots__ = ("_coeffs", "_constant", "_hash", "_form")
    sort: Sort

    @classmethod
    def _make(cls, coeffs: dict[Variable, Fraction], constant):
        t = object.__new__(cls)
        t._coeffs = coeffs
        t._constant = constant
        t._hash = None
        t._form = None
        return t

    def __reduce__(self):  # stored hash and form are rebuilt, not copied
        return self._make, (self._coeffs, self._constant)

    def _compile(self) -> tuple:
        """The integer form: the lcm L of the coefficients' denominators and
        of the constant's row denominator d; per variable v, (v, L * coeff,
        the class of v's values, whether v is read under pi); and the
        constant's row numerators times L / d."""
        coeffs, d, const = self._coeffs, self._constant._d, self._constant._n
        scale = lcm(d, *[q.denominator for q in coeffs.values()])
        quotient = self.sort is Sort.QUOTIENT
        terms = tuple(
            (v, q.numerator * (scale // q.denominator), VALUE_CLASS[v.sort],
             quotient and v.sort is Sort.HOME)
            for v, q in coeffs.items()
        )
        return scale, terms, {k: n * (scale // d) for k, n in const.items()}

    def form(self) -> tuple:
        """The integer form, compiled on the first call and kept."""
        if self._form is None:
            self._form = self._compile()
        return self._form

    def numerators(self, assignment) -> tuple[int, dict[int, int]]:
        """(D, {k: n_k}) with the value under the assignment sum(n_k * sqrt(k)) / D,
        sqrt(0) read as 1, for D > 0 and integers n_k, some of them maybe 0.

        The form is the term's `form()`; each value's row is brought to one
        common denominator d and added in, so D = L * d.  An unbound home
        variable is reported at once, an unbound quotient variable after the
        rest, and a value of the wrong sort raises TypeError.  The map may be the form's own: never change it.
        """
        scale, terms, nums = self._form or self.form()
        if not terms:
            return scale, nums
        d = 1
        values = []
        unbound = None  # the first unbound quotient variable, reported last
        for v, c, want, under_pi in terms:
            try:
                x = assignment[v]
            except KeyError:
                if want is not QuotientElement:
                    raise UnboundVariableError(f"{v} is unbound") from None
                unbound = unbound or v
                continue
            if type(x) is not want:
                raise TypeError(f"{v} is assigned a {type(x).__name__}, not a {want.__name__}")
            if x._d != d:
                d = lcm(d, x._d)
            values.append((c, x, under_pi))
        if unbound is not None:
            raise UnboundVariableError(f"{unbound} is unbound")
        # not model.add_scaled: leaving a cancelled coefficient as 0 costs less
        nums = dict(nums) if d == 1 else {k: n * d for k, n in nums.items()}
        for c, x, under_pi in values:
            c *= d // x._d
            for k, n in x._n.items():
                if k or not under_pi:  # pi kills the rational part, key 0
                    nums[k] = nums.get(k, 0) + c * n
        return scale * d, nums

    @classmethod
    def from_variable(cls, v: Variable):
        return cls({v: Fraction(1)})

    @property
    def coeffs(self) -> dict[Variable, Fraction]:
        return {v: q for v, q in self._coeffs.items() if v.sort is self.sort}

    @property
    def constant(self):
        return self._constant

    def coeff(self, v: Variable) -> Fraction:
        return self._coeffs.get(v, ZERO)

    def variables(self) -> frozenset[Variable]:
        return frozenset(self._coeffs)

    def is_ground(self) -> bool:
        return not self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs and self._constant.is_zero()

    def without(self, v: Variable):
        return self._make({w: q for w, q in self._coeffs.items() if w != v}, self._constant)

    def root(self, v: Variable):
        """The term r with self == coeff(v) * (v - r); v must occur in self.
        It is where self vanishes, so it solves a literal for v."""
        return self.without(v).scale(-1 / self._coeffs[v])

    def __add__(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot add {type(other).__name__} to {type(self).__name__}")
        out = add_scaled(dict(self._coeffs), other._coeffs)
        return self._make(out, self._constant + other._constant)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, q):
        if q == 1:
            return self
        q = Fraction(q)
        coeffs = {v: q * c for v, c in self._coeffs.items()} if q else {}
        return self._make(coeffs, self._constant.scale(q))

    def substitute(self, v: Variable, t: "_Term"):
        """Replace v by a term of its sort; a home term goes under pi in a quotient term."""
        if t.sort is not v.sort:
            raise TypeError(f"cannot substitute {type(t).__name__} for {v}")
        a = self._coeffs.get(v)
        if a is None:
            return self
        if t.sort is not self.sort:
            t = QuotientTerm.project_term(t)
        return self.without(v) + t.scale(a)

    def rename(self, names: Mapping[Variable, Variable]):
        """Replace each variable v by names.get(v, v), of the same sort; the
        renaming must be one-to-one on the variables of the term."""
        return self._make({names.get(v, v): q for v, q in self._coeffs.items()}, self._constant)

    def halves(self):
        """The positive and the negated negative part: self == pos - neg."""
        c = self._constant
        pos = self._make(
            {v: q for v, q in self._coeffs.items() if q > 0},
            c._reduced(c._d, {k: n for k, n in c._n.items() if n > 0}),
        )
        neg = self._make(
            {v: -q for v, q in self._coeffs.items() if q < 0},
            c._reduced(c._d, {k: -n for k, n in c._n.items() if n < 0}),
        )
        return pos, neg

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._coeffs == other._coeffs
            and self._constant == other._constant
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.sort, frozenset(self._coeffs.items()), self._constant))
        return self._hash


class HomeTerm(_Term):
    """An affine combination a1*x_{i1} + ... + an*x_{in} + c over the home sort."""

    __slots__ = ()
    sort = Sort.HOME

    def __init__(self, coeffs=(), constant: ModelElement | Fraction | int = 0):
        self._coeffs = _clean_varmap(coeffs, Sort.HOME)
        if not isinstance(constant, ModelElement):
            constant = ModelElement.from_rational(Fraction(constant))
        self._constant = constant
        self._hash = None
        self._form = None

    @classmethod
    def from_element(cls, a: ModelElement) -> "HomeTerm":
        return cls((), a)

    def evaluate(self, assignment: Mapping[Variable, ModelElement]) -> ModelElement:
        return ModelElement._from_numerators(*self.numerators(assignment))

    def __repr__(self) -> str:
        return f"HomeTerm({self._coeffs!r}, {self._constant!r})"

    def __str__(self) -> str:
        items: list[tuple[int, int, str | None]] = [
            (q.numerator, q.denominator, v.name)
            for v, q in sorted(self._coeffs.items(), key=lambda kv: kv[0].index)
        ]
        items += [(n, d, None if k == 0 else f"r{k}") for k, n, d in self._constant._terms()]
        return render_combination(items)


class QuotientTerm(_Term):
    """b1*u_{j1} + ... + bm*u_{jm} + pi(a1*x_{i1} + ... + an*x_{in}) + quotient constant.

    The home variables sit in the same coefficient map as the quotient
    ones, read under pi.  The home part carries no constant: pi kills
    rational constants and moves the rest into the quotient constant.
    """

    __slots__ = ()
    sort = Sort.QUOTIENT

    def __init__(
        self,
        coeffs=(),
        pushed: HomeTerm | None = None,
        constant: QuotientElement | None = None,
    ):
        self._coeffs = _clean_varmap(coeffs, Sort.QUOTIENT)
        pushed = pushed if pushed is not None else HomeTerm()
        constant = constant if constant is not None else QuotientElement()
        self._coeffs.update(_clean_varmap(pushed.coeffs, Sort.HOME))
        self._constant = constant + project(pushed.constant)
        self._hash = None
        self._form = None

    @classmethod
    def from_element(cls, w: QuotientElement) -> "QuotientTerm":
        return cls((), None, w)

    @classmethod
    def project_term(cls, t: HomeTerm) -> "QuotientTerm":
        """The image of a home term under the quotient map."""
        return cls._make(dict(t._coeffs), project(t.constant))

    @property
    def pushed(self) -> HomeTerm:
        """The home variables under pi, as a home term with zero constant."""
        home = {v: q for v, q in self._coeffs.items() if v.sort is Sort.HOME}
        return HomeTerm._make(home, ModelElement())

    def evaluate(self, assignment) -> QuotientElement:
        return QuotientElement._from_numerators(*self.numerators(assignment))

    def __repr__(self) -> str:
        return f"QuotientTerm({self.coeffs!r}, {self.pushed!r}, {self._constant!r})"

    def __str__(self) -> str:
        items: list[tuple[int, int, str | None]] = [
            (q.numerator, q.denominator, v.name)
            for v, q in sorted(self.coeffs.items(), key=lambda kv: kv[0].index)
        ]
        inner = self.pushed + HomeTerm.from_element(section(self._constant))
        if not inner.is_zero():
            items.append((1, 1, f"pi({inner})"))
        return render_combination(items)


Term = Union[HomeTerm, QuotientTerm]

TERM_CLASS: dict[Sort, type[_Term]] = {Sort.HOME: HomeTerm, Sort.QUOTIENT: QuotientTerm}
