"""Linear normal form of terms over both sorts."""

import copy
import math
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from densepairs.errors import SortError, UnboundVariableError
from densepairs.model import ModelElement, QuotientElement, project, section
from densepairs.terms import HomeTerm, QuotientTerm, Sort, Variable, hvar, qvar
from reference_text import halves


def test_variable_naming():
    assert hvar(3).name == "x3"
    assert qvar(0).name == "u0"
    assert hvar(1) != qvar(1)


def test_a_variable_is_one_object_per_sort_and_index():
    # hash-consed: equal variables are identical, so lookups hash and compare by identity
    x = Variable(Sort.HOME, 1)
    assert x is hvar(1) and Variable(Sort.QUOTIENT, 1) is qvar(1) and x is not qvar(1)
    assert type(x).__hash__ is object.__hash__ and type(x).__eq__ is object.__eq__
    t = HomeTerm({x: 2, hvar(2): 1})
    loaded = pickle.loads(pickle.dumps(t))
    assert len(loaded._v) == 2 and all(a is b for a, b in zip(loaded._v, t._v))
    for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x), *copy.deepcopy({x: 0})):
        assert clone is x
    for attempt in (lambda: setattr(x, "index", 2), lambda: setattr(x, "other", 0), lambda: delattr(x, "sort")):
        with pytest.raises(FrozenInstanceError):
            attempt()
    assert (x.sort, x.index, x.name, x.sort_key(), str(x)) == (Sort.HOME, 1, "x1", ("home", 1), "x1")
    assert repr(x) == "Variable(sort=<Sort.HOME: 'home'>, index=1)"


def test_zero_coefficients_dropped():
    t = HomeTerm({hvar(1): Fraction(0), hvar(2): Fraction(2)})
    assert t.variables() == {hvar(2)}
    assert HomeTerm({hvar(1): Fraction(1)}) - HomeTerm({hvar(1): Fraction(1)}) == HomeTerm()


def test_normal_form_is_canonical():
    # same affine function built two ways compares equal (and hashes equal)
    a = HomeTerm({hvar(1): Fraction(2)}, ModelElement.from_rational(1))
    b = (
        HomeTerm.from_variable(hvar(1))
        + HomeTerm.from_variable(hvar(1))
        + HomeTerm.from_element(ModelElement.from_rational(1))
    )
    assert a == b
    assert hash(a) == hash(b)
    assert str(a) == "2*x1 + 1"


def test_sort_checked_in_coefficient_maps():
    with pytest.raises(SortError):
        HomeTerm({qvar(1): Fraction(1)})
    with pytest.raises(SortError):
        QuotientTerm({hvar(1): Fraction(1)})


def test_home_term_evaluation_and_substitution():
    t = HomeTerm({hvar(1): Fraction(2), hvar(2): Fraction(-1)}, ModelElement.from_rational(3))
    sigma = {
        hvar(1): ModelElement({2: Fraction(1)}),
        hvar(2): ModelElement.from_rational(Fraction(1, 2)),
    }
    value = t.evaluate(sigma)
    assert value == ModelElement({0: Fraction(5, 2), 2: Fraction(2)})
    with pytest.raises(UnboundVariableError):
        t.evaluate({hvar(1): ModelElement()})
    replaced = t.substitute(hvar(1), HomeTerm.from_variable(hvar(3)).scale(3))
    assert replaced.coeff(hvar(3)) == 6
    assert replaced.coeff(hvar(1)) == 0


def test_quotient_term_aggregates_the_quotient_map():
    # pi(x1 + r2) contributes its constant to the quotient constant
    inner = HomeTerm({hvar(1): Fraction(1)}, ModelElement({2: Fraction(1)}))
    s = QuotientTerm.project_term(inner)
    assert s.pushed == HomeTerm({hvar(1): Fraction(1)})
    assert s.constant == QuotientElement({2: Fraction(1)})
    assert s.pushed.constant.is_zero()


def test_quotient_term_evaluation():
    s = QuotientTerm(
        {qvar(1): Fraction(2)},
        HomeTerm({hvar(1): Fraction(1)}),
        QuotientElement({3: Fraction(1)}),
    )
    sigma = {
        qvar(1): QuotientElement({2: Fraction(1)}),
        hvar(1): ModelElement({0: Fraction(5), 2: Fraction(1)}),
    }
    assert s.evaluate(sigma) == QuotientElement({2: Fraction(3), 3: Fraction(1)})


def test_quotient_substitution_distributes_into_pushed():
    s = QuotientTerm((), HomeTerm({hvar(1): Fraction(1)}))
    t = HomeTerm({hvar(3): Fraction(2)})
    out = s.substitute(hvar(1), t)
    assert out.pushed == HomeTerm({hvar(3): Fraction(2)})

    u = QuotientTerm({qvar(1): Fraction(1)})
    w = QuotientTerm((), HomeTerm({hvar(2): Fraction(1)}))
    assert u.substitute(qvar(1), w).pushed.coeff(hvar(2)) == 1


def test_quotient_substitution_by_constant_lands_in_constant():
    s = QuotientTerm((), HomeTerm({hvar(1): Fraction(2)}))
    out = s.substitute(hvar(1), HomeTerm.from_element(ModelElement({2: Fraction(1)})))
    assert out.pushed.is_zero()
    assert out.constant == QuotientElement({2: Fraction(2)})


def test_rendering():
    t = HomeTerm({hvar(1): Fraction(2), hvar(3): Fraction(-1)}, ModelElement({0: Fraction(3, 2), 2: Fraction(1)}))
    assert str(t) == "2*x1 - x3 + 3/2 + r2"
    s = QuotientTerm(
        {qvar(1): Fraction(2), qvar(2): Fraction(-1)},
        HomeTerm({hvar(1): Fraction(1)}),
        QuotientElement({2: Fraction(1)}),
    )
    assert str(s) == "2*u1 - u2 + pi(x1 + r2)"
    assert str(QuotientTerm()) == "0"


def test_quotient_term_keeps_its_public_views():
    s = QuotientTerm(
        {qvar(2): Fraction(2), qvar(1): Fraction(-1, 3)},
        HomeTerm({hvar(3): 1, hvar(1): 2}, ModelElement({0: 5, 3: 1})),
        QuotientElement({2: 1}),
    )
    assert s.coeffs == {qvar(2): 2, qvar(1): Fraction(-1, 3)}
    assert s.pushed == HomeTerm({hvar(3): 1, hvar(1): 2})
    assert s.coeff(qvar(1)) == Fraction(-1, 3) and s.coeff(hvar(1)) == 2
    assert s.coeff(hvar(2)) == 0
    assert s.variables() == {qvar(1), qvar(2), hvar(1), hvar(3)}
    assert s.constant == QuotientElement({2: 1, 3: 1})
    assert repr(s) == (
        "QuotientTerm({Variable(sort=<Sort.QUOTIENT: 'quotient'>, index=2): Fraction(2, 1), "
        "Variable(sort=<Sort.QUOTIENT: 'quotient'>, index=1): Fraction(-1, 3)}, "
        "HomeTerm({Variable(sort=<Sort.HOME: 'home'>, index=3): Fraction(1, 1), "
        "Variable(sort=<Sort.HOME: 'home'>, index=1): Fraction(2, 1)}, ModelElement({})), "
        "QuotientElement({2: Fraction(1, 1), 3: Fraction(1, 1)}))"
    )
    assert repr(QuotientTerm()) == "QuotientTerm({}, HomeTerm({}, ModelElement({})), QuotientElement({}))"
    assert s != HomeTerm() and QuotientTerm() != HomeTerm()


def test_lead_coefficient_order_across_sorts():
    # quotient variables by index, then home variables by index, then radicands:
    # normalization divides by the lead, or by its absolute value for an order atom
    s = QuotientTerm(
        {qvar(2): Fraction(2), qvar(1): Fraction(-1, 3)},
        HomeTerm({hvar(1): 5}),
    )
    assert s.normalized(sign_free=True) == s.scale(-3)
    assert s.normalized(sign_free=False) == s.scale(3)
    pushed_only = QuotientTerm.project_term(
        HomeTerm({hvar(3): 4, hvar(2): Fraction(-2, 3)}, ModelElement({2: 7}))
    )
    assert pushed_only.normalized(sign_free=True) == pushed_only.scale(Fraction(-3, 2))
    ground = QuotientTerm.from_element(QuotientElement({3: -2, 5: 1}))
    assert ground.normalized(sign_free=True) == ground.scale(Fraction(-1, 2))
    assert QuotientTerm().normalized(sign_free=True) == QuotientTerm()


def test_mixing_sorts_is_a_type_error():
    h = HomeTerm({hvar(1): 1})
    s = QuotientTerm({qvar(1): 1})
    with pytest.raises(TypeError):
        s + h
    with pytest.raises(TypeError):
        h + s
    with pytest.raises(TypeError):
        s.substitute(qvar(1), h)
    with pytest.raises(TypeError):
        h.substitute(hvar(1), s)


def test_unbound_home_variable_is_reported_first():
    s = QuotientTerm({qvar(1): 1}, HomeTerm({hvar(2): 1, hvar(1): 3}))
    assert str(s) == "u1 + pi(3*x1 + x2)"
    with pytest.raises(UnboundVariableError, match="x2 is unbound"):
        s.evaluate({})
    with pytest.raises(UnboundVariableError, match="u1 is unbound"):
        s.evaluate({hvar(1): ModelElement(), hvar(2): ModelElement()})


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)
home_elements = st.builds(ModelElement, st.dictionaries(st.sampled_from([0, 2, 3]), rationals))
quotient_elements = st.builds(QuotientElement, st.dictionaries(st.sampled_from([2, 3]), rationals))
home_maps = st.dictionaries(st.sampled_from([hvar(i) for i in range(3)]), rationals)


@st.composite
def terms_and_variables(draw):
    if draw(st.booleans()):
        t = HomeTerm(draw(home_maps), draw(home_elements))
    else:
        quotient_map = st.dictionaries(st.sampled_from([qvar(0), qvar(1)]), rationals)
        t = QuotientTerm(draw(quotient_map), HomeTerm(draw(home_maps)), draw(quotient_elements))
    assume(t.variables())
    return t, draw(st.sampled_from(sorted(t.variables(), key=Variable.sort_key)))


@settings(max_examples=200, deadline=None)
@given(terms_and_variables(), st.data())
def test_root_is_where_the_term_vanishes(term_and_variable, data):
    t, v = term_and_variable
    sigma = {
        w: data.draw(home_elements if w.sort is Sort.HOME else quotient_elements)
        for w in t.variables()
        if w != v
    }
    r = t.root(v)
    value = r.evaluate(sigma)
    # a home variable of a quotient term is read under pi: any preimage will do
    sigma[v] = value if r.sort is v.sort else section(value)
    assert t.evaluate(sigma).is_zero()
    x = HomeTerm.from_variable(v) if v.sort is Sort.HOME else QuotientTerm.from_variable(v)
    if t.sort is not v.sort:
        x = QuotientTerm.project_term(x)
    assert t == (x - r).scale(t.coeff(v))


# --- fused evaluation against the fold of scale and + it replaces -----------


def _folded(t, sigma):
    """The value of t as a sum of scaled values, one element per step."""
    value = t.constant
    for v, q in t.coeffs.items():
        value = value + sigma[v].scale(q)
    if t.sort is Sort.QUOTIENT:
        for v, q in t.pushed.coeffs.items():
            value = value + project(sigma[v].scale(q))
    return value


def _random_element(rng, cls, radicands):
    # coefficients in -1..1 over few radicands, so sums cancel often
    return cls({k: Fraction(rng.randint(-1, 1)) for k in radicands if rng.random() < 0.6})


def _random_term(rng):
    def coeff():
        return rng.choice((1, -1, Fraction(rng.randint(-3, 3), rng.randint(1, 2))))

    home = {hvar(i): coeff() for i in range(4) if rng.random() < 0.6}
    if rng.random() < 0.5:
        return HomeTerm(home, _random_element(rng, ModelElement, (0, 2, 3)))
    quotient = {qvar(i): coeff() for i in range(3) if rng.random() < 0.6}
    return QuotientTerm(quotient, HomeTerm(home), _random_element(rng, QuotientElement, (2, 3)))


def test_fused_evaluate_equals_the_fold_of_scale_and_add():
    rng = random.Random(2024)
    zeros = partial = 0
    for _ in range(3000):
        t = _random_term(rng)
        sigma = {hvar(i): _random_element(rng, ModelElement, (0, 2, 3)) for i in range(4)}
        sigma.update({qvar(i): _random_element(rng, QuotientElement, (2, 3)) for i in range(3)})
        got, expected = t.evaluate(sigma), _folded(t, sigma)
        assert type(got) is type(expected) and got == expected
        assert list(got.items()) == list(expected.items()) and str(got) == str(expected)
        # a clean map: what cancelled is gone, so == and hash match a constructed element
        assert all(got.coeffs.values())
        built = type(got)(got.coeffs)
        assert got == built and hash(got) == hash(built)
        if got.is_zero():
            zeros += 1
            assert got == type(got)() and hash(got) == hash(type(got)())
            continue
        entering = t.constant.radicands().union(*(sigma[v].radicands() for v in t.variables()))
        if t.sort is Sort.QUOTIENT:
            entering -= {0}  # pi drops the rational part of each home value
        partial += got.radicands() < entering
    assert zeros > 100 and partial > 100


def test_evaluate_checks_the_sort_of_each_value():
    t = HomeTerm({hvar(1): 2})
    with pytest.raises(TypeError, match="x1 is assigned a QuotientElement"):
        t.evaluate({hvar(1): QuotientElement({2: 1})})
    s = QuotientTerm({qvar(1): 1}, HomeTerm({hvar(1): 1}))
    with pytest.raises(TypeError, match="u1 is assigned a ModelElement"):
        s.evaluate({qvar(1): ModelElement({2: 1}), hvar(1): ModelElement()})
    with pytest.raises(TypeError, match="x1 is assigned a QuotientElement"):
        s.evaluate({qvar(1): QuotientElement(), hvar(1): QuotientElement({2: 1})})


# ---------------------------------------------------------------------------
# Rows against a plain-Fraction model of the same linear form
# ---------------------------------------------------------------------------

_HOME_VARS = [hvar(i) for i in range(1, 4)]
_QUOTIENT_VARS = [qvar(i) for i in range(1, 3)]


def _ref_key(key):  # quotient variables by index, then home variables, then radicands
    return (2, key) if isinstance(key, int) else (key.sort is Sort.HOME, key.index)


def _ref_text(items):
    """(Fraction, symbol or None for 1) pairs as the term language writes them."""
    parts = []
    for q, symbol in items:
        mag = str(abs(q))
        body = mag if symbol is None else symbol if mag == "1" else f"{mag}*{symbol}"
        parts.append(("-" if q < 0 else "") + body if not parts else f" {'-' if q < 0 else '+'} {body}")
    return "".join(parts) or "0"


class _Ref:
    """A term as a Fraction map over variables and radicands (key 0 is 1)."""

    def __init__(self, sort, form):
        self.sort, self.form = sort, {k: q for k, q in form.items() if q}

    def plus(self, other, a=Fraction(1)):
        out = dict(self.form)
        for k, q in other.form.items():
            out[k] = out.get(k, 0) + a * q
        return _Ref(self.sort, out)

    def scale(self, q):
        return _Ref(self.sort, {k: q * c for k, c in self.form.items()})

    def projected(self):
        return _Ref(Sort.QUOTIENT, {k: q for k, q in self.form.items() if k != 0})

    def lead(self):
        return self.form[min(self.form, key=_ref_key)] if self.form else None

    def variables(self, sort):
        return {k: q for k, q in self.form.items() if isinstance(k, Variable) and k.sort is sort}

    def radicands(self):
        return {k: q for k, q in self.form.items() if isinstance(k, int)}

    def text(self):
        def symbols(form):
            keys = sorted((k for k in form if isinstance(k, Variable)), key=lambda v: v.index)
            keys += sorted(k for k in form if isinstance(k, int))
            return [(form[k], k.name if isinstance(k, Variable) else f"r{k}" if k else None) for k in keys]

        if self.sort is Sort.HOME:
            return _ref_text(symbols(self.form))
        inner = _ref_text(symbols({**self.variables(Sort.HOME), **self.radicands()}))
        items = symbols(self.variables(Sort.QUOTIENT))
        return _ref_text(items + ([(Fraction(1), f"pi({inner})")] if inner != "0" else []))


def _term_of(ref):
    if ref.sort is Sort.HOME:
        return HomeTerm(ref.variables(Sort.HOME), ModelElement(ref.radicands()))
    pushed = HomeTerm(ref.variables(Sort.HOME))
    return QuotientTerm(ref.variables(Sort.QUOTIENT), pushed, QuotientElement(ref.radicands()))


def _check_row(t, ref):
    assert t.sort is ref.sort
    d = math.lcm(*[q.denominator for q in ref.form.values()])
    assert t._d == d
    assert t._v == {k: q.numerator * (d // q.denominator) for k, q in ref.form.items() if isinstance(k, Variable)}
    assert t._n == {k: q.numerator * (d // q.denominator) for k, q in ref.form.items() if isinstance(k, int)}
    assert math.gcd(d, *t._v.values(), *t._n.values()) == 1 and all(t._v.values()) and all(t._n.values())
    built = _term_of(ref)  # the public constructors on the reference's Fractions
    assert t == built and hash(t) == hash(built)
    assert str(t) == ref.text()
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and hash(copy) == hash(t) and (copy._d, copy._v, copy._n) == (t._d, t._v, t._n)


def _random_ref(rng, sort):
    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    form = {v: q() for v in _HOME_VARS if rng.random() < 0.5}
    form.update({k: q() for k in (0, 2, 3) if rng.random() < 0.5})
    if sort is Sort.QUOTIENT:
        form.pop(0, None)
        form.update({v: q() for v in _QUOTIENT_VARS if rng.random() < 0.5})
    return _Ref(sort, form)


def test_rows_match_a_fraction_reference_on_seeded_mixed_operations():
    rng = random.Random(2626)
    pools = {sort: [(_term_of(r), r) for r in (_random_ref(rng, sort) for _ in range(8))] for sort in Sort}
    ops = ["add", "sub", "neg", "scale", "root", "without", "substitute", "rename", "halves", "project", "normalize"]
    done = dict.fromkeys(ops, 0)
    while sum(done.values()) < 3000:
        op = rng.choice(ops)
        t, ref = rng.choice(pools[rng.choice(list(Sort))])
        if rng.random() < 0.1:  # fresh material keeps the pool from running to zero
            ref = _random_ref(rng, ref.sort)
            t = _term_of(ref)
        variables = [k for k in ref.form if isinstance(k, Variable)]
        if op in ("add", "sub"):
            s, r = rng.choice(pools[ref.sort])
            out = [(t + s, ref.plus(r)) if op == "add" else (t - s, ref.plus(r, Fraction(-1)))]
        elif op == "neg":
            out = [(-t, ref.scale(Fraction(-1)))]
        elif op == "scale":
            q = rng.choice([0, 1, -1, 2, Fraction(-3, 4), Fraction(5, 6)])
            out = [(t.scale(q), ref.scale(Fraction(q)))]
        elif op in ("root", "without") and variables:
            v = rng.choice(variables)
            rest = _Ref(ref.sort, {k: q for k, q in ref.form.items() if k != v})
            out = [(t.root(v), rest.scale(-1 / ref.form[v])) if op == "root" else (t.without(v), rest)]
        elif op == "substitute":
            v = rng.choice(_HOME_VARS + (_QUOTIENT_VARS if ref.sort is Sort.QUOTIENT else []))
            s, r = rng.choice(pools[v.sort])
            a = ref.form.get(v, 0)
            rest = _Ref(ref.sort, {k: q for k, q in ref.form.items() if k != v})
            r = r.projected() if r.sort is not ref.sort else r
            out = [(t.substitute(v, s), rest.plus(r, a) if a else ref)]
        elif op == "rename" and variables:
            v = rng.choice(variables)
            if ref.sort is Sort.QUOTIENT and v.sort is Sort.HOME and rng.random() < 0.5:
                w = qvar(9)  # a home variable under pi becomes a quotient variable
            else:
                w = rng.choice(_HOME_VARS if v.sort is Sort.HOME else _QUOTIENT_VARS)
            names = {v: w, w: v} if w in ref.form else {v: w}
            out = [(t.rename(names), _Ref(ref.sort, {names.get(k, k): q for k, q in ref.form.items()}))]
        elif op == "halves":
            pos, neg = halves(t)  # the row split the tree-walk renderer made
            out = [
                (pos, _Ref(ref.sort, {k: q for k, q in ref.form.items() if q > 0})),
                (neg, _Ref(ref.sort, {k: -q for k, q in ref.form.items() if q < 0})),
            ]
        elif op == "project" and ref.sort is Sort.HOME:
            out = [(QuotientTerm.project_term(t), ref.projected())]
        elif op == "normalize":
            sign_free = rng.random() < 0.5
            lead = ref.lead()
            out = [(t.normalized(sign_free), ref.scale(1 / (lead if sign_free else abs(lead))) if lead else ref)]
        else:
            continue
        done[op] += 1
        for s, r in out:
            _check_row(s, r)
            if not s.is_zero():
                pools[r.sort][rng.randrange(8)] = (s, r)
    assert min(done.values()) > 100, done
