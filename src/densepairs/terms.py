"""Linear terms over the two sorts, kept in normal form.

A term is one canonical integer row: a denominator d > 0 and integer
numerators over its variables and over its constant's radicands, sharing
no factor with d, for the affine form (sum(a_x * x) + sum(n_k * sqrt(k))) / d
with sqrt(0) read as 1.  A home term has home variables and a home
constant.  A quotient term has quotient variables and, in the same row,
home variables read under the quotient map pi: since pi is linear,
``u1 + pi(2*x1) + pi(x2 + r3)`` is the form ``u1 + 2*pi(x1) + pi(x2)``
plus the quotient constant ``pi(r3)``, so nested and repeated applications
fold into one.  The row is unique, so two terms denote the same affine
function exactly when they are equal.  Both sorts share with model
elements one row class (`model._Row`: the linear operations, equality and
hashing) and share one `substitute`, all of which build rows with no
Fraction; Fractions are made only at the public accessors (`coeffs`,
`coeff`, `constant`, `pushed`, `repr`) and read by the constructors.
Variables are hash-consed: there is one object per sort and index, so
the rows and assignments they key look them up by identity.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Mapping, Union

from .errors import SortError, UnboundVariableError
from .model import _NO_VARIABLES, ZERO, ModelElement, QuotientElement, _clean, _Row, _scaled, sum_text, summand_text


class Sort(Enum):
    HOME = "home"
    QUOTIENT = "quotient"

    # hash by identity, in C: `Enum.__hash__` is Python code that each `Variable` call would run
    __hash__ = object.__hash__


class Variable:
    """A variable of a sort, hash-consed: `Variable(sort, index)` returns the
    one object made for that pair, so variables, the keys of every
    assignment and term row, hash and compare by identity, in C.  The table
    only grows; a formula names few variables.  Its fields are read-only,
    and pickling or copying one returns the object of its pair."""

    __slots__ = ("sort", "index", "_element", "name")  # _element: the class of its values
    sort: Sort
    index: int

    def __new__(cls, sort: Sort, index: int):
        v = _VARIABLES.get((sort, index))
        if v is None:
            v = object.__new__(cls)
            home = sort is _HOME
            object.__setattr__(v, "sort", sort)
            object.__setattr__(v, "index", index)
            object.__setattr__(v, "_element", ModelElement if home else QuotientElement)
            object.__setattr__(v, "name", ("x" if home else "u") + str(index))
            v = _VARIABLES.setdefault((sort, index), v)
        return v

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy return the interned object
        return Variable, (self.sort, self.index)

    def __repr__(self) -> str:
        return f"Variable(sort={self.sort!r}, index={self.index!r})"

    def sort_key(self) -> tuple[str, int]:
        return (self.sort.value, self.index)

    def __str__(self) -> str:
        return self.name


_VARIABLES: dict[tuple[Sort, int], Variable] = {}


def hvar(index: int) -> Variable:
    return Variable(Sort.HOME, index)


def qvar(index: int) -> Variable:
    return Variable(Sort.QUOTIENT, index)


def _clean_varmap(coeffs, sort: Sort) -> dict[Variable, int | Fraction]:
    def checked(v: Variable) -> Variable:
        if v.sort is not sort:
            raise SortError(f"variable {v} is not of sort {sort.value}")
        return v

    return _clean(coeffs, checked)


_HOME, _QUOTIENT = Sort.HOME, Sort.QUOTIENT  # reading an Enum member off its class is slow
_by_index = attrgetter("index")


class _Term(_Row):
    """A linear form: a row (`model._Row`) over variables, whose (d, _n) is the
    constant's row before reduction.  Subclasses fix the sort of the value
    and of the constant; every operation builds its result as a row."""

    __slots__ = ()
    sort: Sort

    def numerators(self, assignment) -> tuple[int, dict[int, int]]:
        """(D, {k: n_k}) with the value under the assignment sum(n_k * sqrt(k)) / D,
        sqrt(0) read as 1, for D > 0 and integers n_k, some of them maybe 0.

        The values' rows are added into the row's numerators over their common
        denominator e, so D = d * e.  An unbound home variable is reported at
        once, an unbound quotient variable after the rest, and a value of the
        wrong sort raises TypeError.  The map may be the row's own: never change it."""
        if not self._v:
            return self._d, self._n
        e = 1
        values = []
        unbound = None  # the first unbound quotient variable, reported last
        quotient = self.sort is _QUOTIENT
        for v, c in self._v.items():
            want = v._element
            try:
                x = assignment[v]
            except KeyError:
                if want is ModelElement:
                    raise UnboundVariableError(f"{v} is unbound") from None
                unbound = unbound or v
                continue
            if type(x) is not want:
                raise TypeError(f"{v} is assigned a {type(x).__name__}, not a {want.__name__}")
            if x._d != e:
                e = lcm(e, x._d)
            values.append((c, x, quotient and want is ModelElement))
        if unbound is not None:
            raise UnboundVariableError(f"{unbound} is unbound")
        # not model.add_rows: leaving a cancelled coefficient as 0 costs less
        nums = dict(self._n) if e == 1 else _scaled(self._n, e)
        for c, x, under_pi in values:
            c *= e // x._d
            for k, n in x._n.items():
                if k or not under_pi:  # pi kills the rational part, key 0
                    nums[k] = nums.get(k, 0) + c * n
        return self._d * e, nums

    @classmethod
    def from_variable(cls, v: Variable):
        if v.sort is not cls.sort:
            raise SortError(f"variable {v} is not of sort {cls.sort.value}")
        return cls._row(1, {v: 1}, {})

    @property
    def coeffs(self) -> dict[Variable, Fraction]:
        d, sort = self._d, self.sort
        return {v: Fraction(a, d) for v, a in self._v.items() if v.sort is sort}

    @property
    def constant(self):
        cls = ModelElement if self.sort is _HOME else QuotientElement
        return cls._reduced(self._d, _NO_VARIABLES, self._n)

    def coeff(self, v: Variable) -> Fraction:
        a = self._v.get(v)
        return ZERO if a is None else Fraction(a, self._d)

    def coeff_sign(self, v: Variable) -> int:
        """The sign of coeff(v), read off the row: 0 exactly when v does not occur."""
        a = self._v.get(v)
        return 0 if a is None else 1 if a > 0 else -1

    def variables(self) -> frozenset[Variable]:
        return frozenset(self._v)

    def is_ground(self) -> bool:
        return not self._v

    def without(self, v: Variable):
        if v not in self._v:
            return self
        rest = dict(self._v)
        del rest[v]
        return self._reduced(self._d, rest, self._n)

    def root(self, v: Variable):
        """The term r with self == coeff(v) * (v - r); v must occur in self.
        It is where self vanishes, so it solves a literal for v: the rest of
        the row over v's numerator a, negated."""
        rest = dict(self._v)
        a = rest.pop(v)
        if a < 0:
            return self._reduced(-a, rest, self._n)
        return self._reduced(a, _scaled(rest, -1), _scaled(self._n, -1))

    def substitute(self, v: Variable, t: "_Term"):
        """Replace v by a term of its sort; a home term goes under pi in a quotient term."""
        if t.sort is not v.sort:
            raise TypeError(f"cannot substitute {type(t).__name__} for {v}")
        a = self._v.get(v)
        if a is None:
            return self
        if t.sort is not self.sort:
            t = QuotientTerm.project_term(t)
        return self.without(v)._merge(t, a, self._d)

    def rename(self, names: Mapping[Variable, Variable]):
        """Replace each variable v by names.get(v, v); the renaming must be
        one-to-one on the variables of the term, and may take the home
        variables of a quotient term to quotient ones."""
        return self._row(self._d, {names.get(v, v): a for v, a in self._v.items()}, self._n)

    def normalized(self, sign_free: bool):
        """The term over its lead coefficient (the first of the quotient variables
        by index, the home variables by index and the radicands), so the lead is
        1; unless sign_free, over the lead's absolute value, so the lead is 1 or -1."""
        v, n = self._v, self._n
        if v:
            lead = v[min(v, key=lambda x: (x.sort is _HOME, x.index))]
        elif n:
            lead = n[min(n)]
        else:
            return self
        t = -self if lead < 0 and sign_free else self
        return t if abs(lead) == t._d else t._reduced(abs(lead), t._v, t._n)

    def _summands(self) -> tuple[list, list]:
        """The `summand_text` of each entry of the row in the order the term is
        written, the variables by index and then the radicands: those outside
        pi, and a quotient term's home variables and radicands, under pi."""
        d, v, n = self._d, self._v, self._n
        outer, inner = [], []
        under = inner if self.sort is _QUOTIENT else outer
        for x in sorted(v, key=_by_index) if len(v) > 1 else v:
            (under if x.sort is _HOME else outer).append(summand_text(v[x], d, x.name))
        for k in sorted(n) if len(n) > 1 else n:
            under.append(summand_text(n[k], d, f"r{k}" if k else None))
        return outer, inner

    def sides(self) -> list[str]:
        """The texts of the positive part and of the negated negative part,
        self == left - right, read off the row: each a sum of positive
        summands, each coefficient in lowest terms."""
        outer, inner = self._summands()
        texts = []
        for negative in (False, True):
            parts = [t for n, t in outer if n is negative]
            if under := [t for n, t in inner if n is negative]:
                parts.append(f"pi({' + '.join(under)})")
            texts.append(" + ".join(parts) or "0")
        return texts

    def __str__(self) -> str:
        outer, inner = self._summands()
        if inner:
            outer.append((False, f"pi({sum_text(inner)})"))
        return sum_text(outer)


class HomeTerm(_Term):
    """An affine combination a1*x_{i1} + ... + an*x_{in} + c over the home sort."""

    __slots__ = ()
    sort = Sort.HOME

    def __new__(cls, coeffs=(), constant: ModelElement | Fraction | int = 0):
        return cls._of(_clean_varmap(coeffs, _HOME), {}) + cls.from_element(constant)

    @classmethod
    def from_element(cls, a: ModelElement | Fraction | int) -> "HomeTerm":
        if not isinstance(a, ModelElement):
            a = ModelElement.from_rational(a)
        return cls._row(a._d, a._v, a._n)

    def evaluate(self, assignment: Mapping[Variable, ModelElement]) -> ModelElement:
        return ModelElement._from_numerators(*self.numerators(assignment))

    def __repr__(self) -> str:
        return f"HomeTerm({self.coeffs!r}, {self.constant!r})"


class QuotientTerm(_Term):
    """b1*u_{j1} + ... + bm*u_{jm} + pi(a1*x_{i1} + ... + an*x_{in}) + quotient constant.

    The home variables sit in the same row as the quotient ones, read
    under pi.  The home part carries no constant: pi kills rational
    constants and moves the rest into the quotient constant.
    """

    __slots__ = ()
    sort = Sort.QUOTIENT

    def __new__(
        cls,
        coeffs=(),
        pushed: HomeTerm | None = None,
        constant: QuotientElement | None = None,
    ):
        t = cls._of(_clean_varmap(coeffs, _QUOTIENT), {})
        if constant is not None:
            t = t + cls.from_element(constant)
        return t if pushed is None else t + cls.project_term(pushed)

    @classmethod
    def from_element(cls, w: QuotientElement) -> "QuotientTerm":
        if type(w) is not QuotientElement:
            raise TypeError(f"a QuotientTerm constant is a QuotientElement, not {type(w).__name__}")
        return cls._row(w._d, w._v, w._n)

    @classmethod
    def project_term(cls, t: HomeTerm) -> "QuotientTerm":
        """The image of a home term under the quotient map, which kills key 0."""
        if type(t) is not HomeTerm:
            raise SortError(f"cannot project a {type(t).__name__}, only a HomeTerm")
        n = t._n
        if 0 in n:
            n = dict(n)
            del n[0]
        return cls._reduced(t._d, t._v, n)

    @property
    def pushed(self) -> HomeTerm:
        """The home variables under pi, as a home term with zero constant."""
        return HomeTerm._reduced(self._d, {v: a for v, a in self._v.items() if v.sort is _HOME}, {})

    def evaluate(self, assignment) -> QuotientElement:
        return QuotientElement._from_numerators(*self.numerators(assignment))

    def __repr__(self) -> str:
        return f"QuotientTerm({self.coeffs!r}, {self.pushed!r}, {self.constant!r})"


Term = Union[HomeTerm, QuotientTerm]

# the sort of a variable -> the class of its terms
TERM_CLASS: dict[Sort, type[_Term]] = {Sort.HOME: HomeTerm, Sort.QUOTIENT: QuotientTerm}
