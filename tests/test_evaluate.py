"""`eval_formula` and `eval_atom` against a reference evaluator.

The reference is the evaluator the compiled plans replaced: a generator
walk over the tree, and atoms decided on the Fraction value of the
payload (`Term.evaluate`).  The two must agree in value, or in the type
and message of the exception raised, on seeded random formulas of every
theory mode and on hand-built trees the parser never makes.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from densepairs import evaluate
from densepairs.errors import QuantifiedInputError, UnboundVariableError
from densepairs.evaluate import atoms, eval_formula
from densepairs.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    AtomKind,
    BoolConst,
    Exists,
    Forall,
    Not,
    Or,
    TheoryMode,
    all_atoms,
    eval_atom,
    fold_ground,
    home_eq,
    home_lt,
    quot_prec,
    traverse,
)
from densepairs.model import Model, ModelElement, QuotientElement, _Row, int_sign, lead_sign, project
from densepairs.parser import parse
from densepairs.randgen import (
    random_assignment,
    random_element,
    random_literal,
    random_qf_formula,
    random_quotient_element,
)
from densepairs.terms import HomeTerm, QuotientTerm, Sort, _Term, hvar, qvar

MODEL = Model(4)
HOME = [hvar(1), hvar(2), hvar(3)]
QUOT = [qvar(1), qvar(2)]


def reference_atom(atom, assignment):
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


def reference_eval(f, assignment):
    def connective(g):
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

    def step(g):
        if isinstance(g, Atom):
            return reference_atom(g, assignment)
        if isinstance(g, BoolConst):
            return g.value
        return connective(g)

    return traverse(step, f)


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the type and the message are what must agree
        return ("raises", type(exc), str(exc))


def assert_agree(f, assignment):
    want = outcome(reference_eval, f, assignment)
    assert outcome(eval_formula, f, assignment) == want, (str(f), assignment)
    return want


def _root_assignment(rng, f, variables):
    """A random assignment with one variable moved to where an atom of f
    vanishes, so equations hold and order atoms sit on exact zeros."""
    sigma = random_assignment(rng, variables, MODEL)
    atoms = [a for a in all_atoms(f) if a.payload.variables()]
    if atoms:
        payload = rng.choice(atoms).payload
        v = rng.choice(sorted(payload.variables(), key=lambda w: w.sort_key()))
        if v.sort is payload.sort:  # a home variable under pi has a whole coset of roots
            rest = {w: x for w, x in sigma.items() if w != v}
            sigma[v] = payload.root(v).evaluate(rest)
    return sigma


def _broken(rng, sigma):
    """The assignment with one variable dropped or given the other sort."""
    sigma = dict(sigma)
    v = rng.choice(sorted(sigma, key=lambda w: w.sort_key()))
    if rng.random() < 0.5:
        del sigma[v]
    else:
        sigma[v] = QuotientElement({3: 1}) if v.sort is Sort.HOME else random_element(rng, MODEL)
    return sigma


def test_plans_match_the_reference_on_seeded_formulas():
    rng = random.Random(9090)
    pairs = raised = held = 0
    for i in range(420):
        mode = list(TheoryMode)[i % 3]
        variables = HOME if mode is TheoryMode.OVS else HOME + QUOT
        f = random_qf_formula(rng, variables, MODEL, mode, depth=rng.randint(1, 4))
        for j in range(8):
            if j < 3:
                sigma = random_assignment(rng, variables, MODEL)
            elif j < 6:
                sigma = _root_assignment(rng, f, variables)
            else:
                sigma = _broken(rng, random_assignment(rng, variables, MODEL))
            result = assert_agree(f, sigma)
            pairs += 1
            raised += result[0] == "raises"
            held += result == ("value", True)
    assert pairs >= 3000
    assert 100 < raised < pairs // 2 and pairs // 5 < held < pairs - pairs // 5


def test_ground_atoms_fold_as_the_reference_decides():
    rng = random.Random(77)
    for i in range(600):
        lit = random_literal(rng, [], MODEL, list(TheoryMode)[i % 3])
        atom = lit.sub if isinstance(lit, Not) else lit
        want = reference_atom(atom, {})
        assert eval_atom(atom, {}) is want
        assert fold_ground(atom) == (TRUE if want else FALSE)


X1, X2, U1, U2 = hvar(1), hvar(2), qvar(1), qvar(2)
NEG = ModelElement({0: Fraction(-1, 2), 2: Fraction(1, 3)})  # about -0.03
POS = ModelElement({0: Fraction(5, 7)})
LT = home_lt(HomeTerm({X1: 1}))  # x1 < 0
EQ = home_eq(HomeTerm({X1: 3, X2: -1}))  # 3*x1 = x2
SIGMA = {X1: NEG, X2: NEG.scale(3)}  # LT and EQ hold


def test_hand_built_trees_the_parser_never_makes():
    ex = Exists(X2, LT)
    trees = [
        And((Or((LT, Not(EQ))), Or((Not(LT), And((EQ, LT)))))),  # unflattened
        Or((And((Not(LT), EQ)), Or((Not(EQ), Or((Not(LT), Not(Not(EQ)))))))),
        Not(Not(Not(LT))),
        Not(Not(Not(Not(EQ)))),
        And((TRUE, LT)),
        And((LT, FALSE, ex)),  # the constant decides before the quantifier
        Or((FALSE, Not(LT), TRUE)),
        Or((BoolConst(False), BoolConst(False))),
        And((Not(LT), ex)),  # a quantifier behind a deciding child
        Or((LT, Forall(X1, EQ))),
        Or((Not(LT), ex)),  # a quantifier reached
        And((ex, FALSE)),
        Not(ex),
        And((LT, "not a formula")),
        Or((LT, "not a formula")),
    ]
    want = [True, True, False, True, True, False, True, False, False, True]
    for f, expected in zip(trees, want):
        assert assert_agree(f, SIGMA) == ("value", expected), str(f)
    quantified = ("raises", QuantifiedInputError, "eval_formula requires a quantifier-free formula")
    for f in trees[len(want):-2]:
        assert assert_agree(f, SIGMA) == quantified
    assert assert_agree(trees[-2], SIGMA) == ("raises", TypeError, "not a formula: 'not a formula'")
    assert assert_agree(trees[-1], SIGMA) == ("value", True)
    for f in trees:  # a second run uses the plan the first one compiled
        assert outcome(eval_formula, f, SIGMA) == outcome(reference_eval, f, SIGMA)
    assert assert_agree(ex, {}) == quantified
    assert assert_agree("x1 < 0", {}) == ("raises", TypeError, "not a formula: 'x1 < 0'")


def test_unbound_and_wrong_sort_variables_raise_as_the_reference_does():
    # pi(x1) + u1 + pi(x2) - u2 prec 0: home variables are reported unbound
    # first, quotient ones after the walk; a wrong sort raises where it is met
    prec = quot_prec(QuotientTerm({U1: 1, U2: -1}, HomeTerm({X1: 1, X2: 1})))
    eq = home_eq(HomeTerm({X2: 1, X1: -2}, ModelElement({3: 1})))
    w = QuotientElement({2: Fraction(1, 2)})
    cases = [
        {},
        {X1: NEG},
        {X1: NEG, X2: POS},
        {X1: NEG, X2: POS, U2: w},
        {X1: NEG, X2: POS, U1: w},
        {X1: NEG, X2: POS, U1: w, U2: NEG},
        {X1: w, X2: POS, U1: w, U2: w},
        {X1: NEG, U1: NEG},
        {X2: NEG, U2: w},
        {X1: NEG, X2: POS, U1: w, U2: w},
        {X1: 1, X2: POS},
    ]
    seen = set()
    for sigma in cases:
        for f in (prec, eq, Not(prec), And((eq, prec)), Or((prec, eq))):
            seen.add(assert_agree(f, sigma)[:2])
    assert {("value", True), ("value", False)} <= seen
    assert any(r[0] == "raises" and r[1].__name__ == "UnboundVariableError" for r in seen)
    assert ("raises", TypeError) in seen


def test_a_plan_is_kept_on_the_node_and_reused(monkeypatch):
    lt, eq = home_lt(HomeTerm({X1: 1})), home_eq(HomeTerm({X1: 3, X2: -1}))
    evaluated = []  # the payloads evaluation reads, in order
    read = evaluate.eval_atom

    def counted(atom, assignment):
        evaluated.append(atom.payload)
        return read(atom, assignment)

    monkeypatch.setattr(evaluate, "eval_atom", counted)

    def tree():
        return And((Or((lt, Not(eq))), Not(lt)))

    f = tree()
    assert not hasattr(f, "_plan")
    assert eval_formula(f, SIGMA) is False
    plan = f._plan
    assert isinstance(plan, tuple) and eval_formula(f, SIGMA) is False and f._plan is plan
    assert lt.payload in evaluated and eq.payload not in evaluated  # eq is never reached
    assert f == tree() and hash(f) == hash(tree()) and not hasattr(tree(), "_plan")


def test_a_term_compiles_once_for_evaluate_and_eval_atom():
    # the term's row is its evaluation form: evaluation compiles and keeps nothing
    t = HomeTerm({X1: Fraction(1, 2), X2: -3}, ModelElement({0: 1, 3: Fraction(-2, 5)}))
    value = t.evaluate(SIGMA)
    assert not hasattr(t, "_form") and t._hash is None
    d, nums = t.numerators(SIGMA)
    assert value == ModelElement({k: Fraction(n, d) for k, n in nums.items()})
    assert eval_atom(Atom(AtomKind.HOME_LT, t), SIGMA) is (value < ModelElement())


def by_numerators(atom, assignment):
    """An atom's truth read off the integer numerators of its payload's value,
    as `eval_atom` reads every atom with no variable or several."""
    nums = atom.payload.numerators(assignment)[1]
    if atom.kind is AtomKind.HOME_LT:
        return int_sign(nums.items()) < 0
    if atom.kind is AtomKind.QUOT_PREC:
        return lead_sign(nums) < 0
    if atom.kind is AtomKind.IN_Q:
        return not any(n for k, n in nums.items() if k)
    return not any(nums.values())


def test_one_variable_atoms_read_against_their_root_agree_with_the_numerators():
    # raw atoms, their payloads not rescaled, of each kind on x1 and, for the
    # quotient kinds, on u1 too; each read at its root, in the root's coset,
    # a hair either side of it, off its coset and at random, then unbound
    # and at a value of the other sort, which must raise as the numerators do
    rng = random.Random(3535)
    kinds = list(AtomKind)
    home_kinds = (AtomKind.HOME_EQ, AtomKind.HOME_LT, AtomKind.IN_Q)
    seen = set()
    pairs = 0
    for i in range(2600):
        kind = kinds[i % 5]
        v = X1 if kind in home_kinds or i % 10 < 5 else U1
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 6))
        c = random_element(rng, MODEL)
        if kind in home_kinds:
            payload = HomeTerm({v: a}, c)
        elif v is X1:  # pi(a*x1) + pi(c)
            payload = QuotientTerm({}, HomeTerm({v: a}), project(c))
        else:
            payload = QuotientTerm({v: a}, None, project(c))
        atom = Atom(kind, payload)
        root = c.scale(-1 / a)  # a home root; its image is the quotient one
        hair = ModelElement({0: Fraction(1, 10**9)})
        values = [
            root,
            root + ModelElement({0: Fraction(rng.randint(-9, 9), rng.randint(1, 9))}),
            root + hair,
            root - hair,
            root + random_element(rng, MODEL).scale(Fraction(1, 7)),
            random_element(rng, MODEL),
        ]
        wrong = random_element(rng, MODEL) if v is U1 else QuotientElement({3: rng.randint(1, 4)})
        sigmas = [{v: x if v is X1 else project(x), X2: POS} for x in values] + [{X2: POS}, {v: wrong}]
        for sigma in sigmas:
            want = outcome(by_numerators, atom, sigma)
            assert outcome(eval_atom, atom, sigma) == want, (str(atom), sigma)
            seen.add((kind, v, want[:2]))
            pairs += 1
        assert atom._root[0] is v  # read against its root
    assert pairs >= 20_000
    for kind in kinds:
        for v in (X1,) if kind in home_kinds else (X1, U1):
            assert {("value", True), ("value", False)} < {r[2] for r in seen if r[:2] == (kind, v)}
    assert {r[2][1] for r in seen if r[2][0] == "raises"} == {UnboundVariableError, TypeError}
    home_atom, quotient_atom = parse("x1 = 1 + r2"), parse("u1 prec pi(r2)", TheoryMode.POVS_PREC)
    assert outcome(eval_atom, home_atom, {}) == ("raises", UnboundVariableError, "x1 is unbound")
    assert outcome(eval_atom, home_atom, {X1: QuotientElement({2: 1})}) == (
        "raises", TypeError, "x1 is assigned a QuotientElement, not a ModelElement"
    )
    assert outcome(eval_atom, quotient_atom, {U1: ModelElement({2: 1})}) == (
        "raises", TypeError, "u1 is assigned a ModelElement, not a QuotientElement"
    )


MORE_HOME = [hvar(1), hvar(2), hvar(3), hvar(4)]
MORE_QUOT = [qvar(1), qvar(2), qvar(3)]


def fraction_sign(value):
    """The sign of sum(q_k * sqrt(k)), sqrt(0) read as 1, for a map of nonzero
    Fractions: each sqrt(k) is bracketed by Fractions 2**-bits apart, and
    bits doubles until the bracketed sum excludes 0, which it does for any
    nonempty map since 1 and the square roots of primes are independent."""
    if not value:
        return 0
    bits = 8
    while True:
        lo = hi = Fraction(0)
        for k, q in value.items():
            if k == 0:
                below = above = Fraction(1)
            else:
                r = math.isqrt(k << (2 * bits))
                below, above = Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)
            lo += q * (below if q > 0 else above)
            hi += q * (above if q > 0 else below)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def _linear(payload):
    """(variable, Fraction coefficient) of the payload from its accessors: a
    quotient term's quotient variables, then its home ones from `pushed`."""
    linear = list(payload.coeffs.items())
    if payload.sort is Sort.QUOTIENT:
        linear += payload.pushed.coeffs.items()
    return linear


def fraction_value(payload, assignment):
    """The payload's value under the assignment as {radicand: nonzero Fraction},
    read off the Fraction accessors alone: the coefficients (a quotient term's
    home variables from `pushed`, read under pi, which drops key 0), the
    constant and the values' `coeffs`.  The variables are met in row order,
    which the tests' construction makes the order these accessors list them
    in: an unbound home variable or a value of the wrong class raises where it
    is met, an unbound quotient variable once all of them have been met."""
    value = dict(payload.constant.coeffs)
    unbound = None
    for v, c in _linear(payload):
        under_pi = v.sort is not payload.sort
        want = ModelElement if v.sort is Sort.HOME else QuotientElement
        if v not in assignment:
            if want is ModelElement:
                raise UnboundVariableError(f"{v} is unbound")
            unbound = unbound or v
            continue
        x = assignment[v]
        if type(x) is not want:
            raise TypeError(f"{v} is assigned a {type(x).__name__}, not a {want.__name__}")
        for k, q in x.coeffs.items():
            if k or not under_pi:
                value[k] = value.get(k, 0) + c * q
    if unbound is not None:
        raise UnboundVariableError(f"{unbound} is unbound")
    return {k: q for k, q in value.items() if q}


def fraction_truth(atom, assignment):
    value = fraction_value(atom.payload, assignment)
    if atom.kind is AtomKind.HOME_LT:
        return fraction_sign(value) < 0
    if atom.kind is AtomKind.IN_Q:
        return value.keys() <= {0}
    if atom.kind is AtomKind.QUOT_PREC:  # the lowest radicand's coefficient
        return bool(value) and value[min(value)] < 0
    return not value


def _multi_variable_atom(rng, kind):
    """A raw atom of the kind in 2-4 variables, its payload not rescaled: a
    quotient term lists its quotient variables first and its home ones, under
    pi, after them, so that its row keeps the order `fraction_value` reads."""
    def coefficient():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 6))

    count = rng.randint(2, 4)
    if kind in (AtomKind.HOME_EQ, AtomKind.HOME_LT, AtomKind.IN_Q):
        coeffs = {v: coefficient() for v in rng.sample(MORE_HOME, count)}
        return Atom(kind, HomeTerm(coeffs, random_element(rng, MODEL) if rng.random() < 0.8 else 0))
    chosen = rng.sample(MORE_HOME + MORE_QUOT, count)
    quotient = {v: coefficient() for v in chosen if v.sort is Sort.QUOTIENT}
    home = {v: coefficient() for v in chosen if v.sort is Sort.HOME}
    constant = random_quotient_element(rng, MODEL) if rng.random() < 0.8 else None
    return Atom(kind, QuotientTerm(quotient, HomeTerm(home) if home else None, constant))


def _moved_to_zero(rng, atom, sigma):
    """sigma with one variable v of the atom moved so that its payload's value
    is 0 (for `Q` a rational; for a home v under pi, one of its coset), then
    maybe nudged by 10**-9 either way, all in Fractions: v is moved by the
    value over its coefficient."""
    payload = atom.payload
    v, c = rng.choice(_linear(payload))
    value = fraction_value(payload, sigma)
    if atom.kind is AtomKind.IN_Q or (payload.sort is Sort.QUOTIENT and v.sort is Sort.HOME):
        value[0] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    moved = dict(sigma[v].coeffs)
    for k, q in value.items():
        moved[k] = moved.get(k, 0) - q / c
    nudge = rng.choice((0, 0, 1, -1))
    if nudge and v.sort is Sort.HOME:
        moved[0] = moved.get(0, 0) + Fraction(nudge, 10**9)
    return {**sigma, v: type(sigma[v])(moved)}


def test_multi_variable_atoms_agree_with_a_fraction_reference():
    # atoms in 2-4 variables of each kind, read at random, at exact zeros of
    # their payload (a hair off them for home variables), with a variable
    # unbound, with one bound to the other sort and with both: `eval_atom` and the
    # payload's `evaluate` must give the reference's truth and value, or raise
    # its class and message; the reference runs first, with `numerators`,
    # `evaluate` and the row operations made to fail, so it reads nothing else
    rng = random.Random(6161)
    kinds = list(AtomKind)
    cases = []
    for i in range(3000):
        atom = _multi_variable_atom(rng, kinds[i % 5])
        variables = sorted(atom.payload.variables(), key=lambda w: w.sort_key())
        sigma = {}
        for v in variables:
            sigma[v] = random_element(rng, MODEL) if v.sort is Sort.HOME else random_quotient_element(rng, MODEL)
        zero = _moved_to_zero(rng, atom, sigma)
        dropped, wrong = dict(sigma), dict(zero)
        del dropped[rng.choice(variables)]
        v = rng.choice(variables)
        wrong[v] = QuotientElement({3: rng.randint(1, 4)}) if v.sort is Sort.HOME else random_element(rng, MODEL)
        both = dict(wrong)  # one variable unbound and another of the wrong sort: which is reported
        del both[rng.choice([w for w in variables if w is not v])]
        for s in (sigma, zero, _moved_to_zero(rng, atom, sigma), _moved_to_zero(rng, atom, zero), dropped, wrong, both):
            cases.append((atom, s))

    def fail(*args):
        raise AssertionError("the reference used the arithmetic under test")

    with pytest.MonkeyPatch.context() as patch:
        for cls, name in [(_Term, "numerators"), (HomeTerm, "evaluate"), (QuotientTerm, "evaluate")]:
            patch.setattr(cls, name, fail)
        for name in ("_merge", "__neg__", "scale", "__add__", "__sub__"):
            patch.setattr(_Row, name, fail)
        want = [(outcome(fraction_truth, a, s), outcome(fraction_value, a.payload, s)) for a, s in cases]

    seen = set()
    for (atom, sigma), (truth, value) in zip(cases, want):
        assert outcome(eval_atom, atom, sigma) == truth, (str(atom), sigma)
        got = outcome(atom.payload.evaluate, sigma)
        if value[0] == "value":
            cls = ModelElement if atom.payload.sort is Sort.HOME else QuotientElement
            assert got[0] == "value" and type(got[1]) is cls and got[1].coeffs == value[1], (str(atom), sigma)
        else:
            assert got == value, (str(atom), sigma)
        seen.add((atom.kind, truth[:2]))
    assert len(cases) >= 20_000
    for kind in kinds:
        assert {("value", True), ("value", False)} < {r for k, r in seen if k is kind}
    assert {r[1] for k, r in seen if r[0] == "raises"} == {UnboundVariableError, TypeError}
    assert all(len(a.payload.variables()) >= 2 and a._root is None for a, _ in cases)


def test_ground_atoms_are_decided_when_the_plan_is_compiled():
    # a constant folds where it stands: what runs before it still runs
    unbound = ("raises", UnboundVariableError, "x1 is unbound")
    quantified = ("raises", QuantifiedInputError, "eval_formula requires a quantifier-free formula")
    cases = [
        ("x1 < 0 | 1 < r2", unbound, 2),  # the atom reads x1 before the constant decides
        ("1 < r2 | x1 < 0", ("value", True), 1),  # the constant decides first
        ("(E x2. x1 < x2) & 1 < 0", quantified, 2),  # the quantifier is reached first
        ("1 < 0 & (E x2. x1 < x2)", ("value", False), 1),  # and here it is not
        ("!(1 < r2 | x1 < 0)", ("value", False), 1),  # a not over a folded junction
        ("!(x1 < 0 | 2 < 1)", unbound, 2),  # one child is left: atom, not
        ("x1 < 0 & 0 < 1 & x1 = 2*x2", unbound, 3),  # a neutral constant between two atoms
        ("!(1 = r2 + 1/2*r3) | !Q(x1) | Q(x1 + 1/2 - 1/2*r2)", ("value", True), 1),
    ]
    for text, want, size in cases:
        f = parse(text)
        assert assert_agree(f, {}) == want, text
        assert len(f._plan) == size, (text, f._plan)
        assert all(a.payload.variables() for a in atoms(f)), text
    f = parse("x1 < 0 & 0 < 1 & x1 = 2*x2")
    assert [str(a) for a in atoms(f)] == ["x1 < 0", "x1 = 2*x2"]
    for sigma in (SIGMA, {X1: NEG, X2: POS}, {X1: POS}, {X1: NEG}):
        assert_agree(f, sigma)
    assert atoms(parse("1 < r2")) == [] and atoms(parse("x1 < 0 | 1 < 0")) == [LT]


def test_a_plan_lists_one_object_per_distinct_atom_in_occurrence_order():
    g = parse("(x1 < x2 | Q(x1)) & (x1 < x2 | 2 < x1) & (Q(x1) | x1 = x2) & (x1 < 1 | x1 < 2)")
    texts = ["x1 < x2", "Q(x1)", "x1 < x2", "2 < x1", "Q(x1)", "x1 = x2", "x1 < 1", "x1 < 2"]
    plan = atoms(g)
    assert plan == [parse(text) for text in texts]  # the walk's order and length
    first = {}  # each atom -> its first occurrence in the tree
    for junction in g.children:
        for atom in junction.children:
            first.setdefault(atom, atom)
    assert all(atom is first[atom] for atom in plan)
    assert len(set(map(id, plan))) == len(set(plan)) == 6


def test_constants_fold_through_a_chain_20000_deep():
    depth = 20_000
    ground = home_lt(HomeTerm({}, ModelElement({0: 1, 2: -1})))  # 1 < r2: true
    folded = ground
    for _ in range(depth):  # (((1 < r2 | x1 < 0) | x1 < 0) ...): true before x1 is read
        folded = Or((folded, LT))
    assert assert_agree(folded, {}) == ("value", True)
    assert len(folded._plan) == 1 and atoms(folded) == []
    mixed = ground
    for k in range(depth):  # the constant innermost, behind atoms that read x1 and x2
        mixed = Not(mixed) if k % 3 == 0 else And((EQ, mixed)) if k % 3 == 1 else Or((LT, mixed))
    for sigma in (SIGMA, {X1: POS, X2: POS}, {X1: NEG}, {}):
        assert_agree(mixed, sigma)
    assert ground not in atoms(mixed) and len(mixed._plan) < 3 * depth


def test_no_ground_payload_is_evaluated_after_the_first_call(monkeypatch):
    rng = random.Random(515)
    formulas = [random_qf_formula(rng, [X1], MODEL, TheoryMode.POVS, depth=3) for _ in range(300)]
    formulas += [parse(t) for t in ("x1 < 0 | 1 < r2", "!(1 = r2) & (Q(x1) | 2 < r3) & !(x1 = 1/2)")]
    formulas = [f for f in formulas if not isinstance(f, Atom)]  # a bare atom is not compiled
    ground = sum(not a.payload.variables() for f in formulas for a in all_atoms(f))
    sigmas = [random_assignment(rng, [X1], MODEL) for _ in range(4)]
    want = [[outcome(reference_eval, f, sigma) for sigma in sigmas] for f in formulas]
    for f in formulas:
        eval_formula(f, sigmas[0])
    evaluated = []  # the payloads evaluation reads from now on
    read = evaluate.eval_atom

    def counted(atom, assignment):
        evaluated.append(atom.payload)
        return read(atom, assignment)

    monkeypatch.setattr(evaluate, "eval_atom", counted)
    assert [[outcome(eval_formula, f, sigma) for sigma in sigmas] for f in formulas] == want
    assert ground > 200 and len(evaluated) > 500
    assert all(t.variables() for t in evaluated)
    assert all(a.payload.variables() for f in formulas for a in atoms(f))


def test_plans_match_the_reference_on_20000_pairs_rich_in_ground_atoms():
    # formulas over one or two of the variables, so that many atoms are ground,
    # under assignments of those variables, sound, at roots or broken
    rng = random.Random(2121)
    pairs = raised = held = grounded = 0
    for i in range(2520):
        mode = list(TheoryMode)[i % 3]
        pool = HOME if mode is TheoryMode.OVS else HOME + QUOT
        variables = rng.sample(pool, rng.randint(1, 2))
        f = random_qf_formula(rng, variables, MODEL, mode, depth=rng.randint(1, 4))
        for j in range(8):
            if j < 3:
                sigma = random_assignment(rng, variables, MODEL)
            elif j < 6:
                sigma = _root_assignment(rng, f, variables)
            else:
                sigma = _broken(rng, random_assignment(rng, variables, MODEL))
            result = assert_agree(f, sigma)
            pairs += 1
            raised += result[0] == "raises"
            held += result == ("value", True)
        grounded += any(not a.payload.variables() for a in all_atoms(f))
    assert pairs >= 20_000 and grounded > 1000
    assert 1000 < raised < pairs // 2 and pairs // 5 < held < pairs - pairs // 5


_PLANS = """
import hashlib, random
from densepairs.evaluate import eval_formula
from densepairs.formulas import Atom, TheoryMode
from densepairs.model import Model
from densepairs.randgen import random_assignment, random_qf_formula
from densepairs.terms import hvar, qvar

rng = random.Random(4)
variables = [hvar(1), hvar(2), qvar(1)]
digest = hashlib.sha256()
for i in range(150):
    f = random_qf_formula(rng, variables, Model(3), TheoryMode.POVS_PREC, depth=3)
    eval_formula(f, random_assignment(rng, variables, Model(3)))
    plan = f._plan if not isinstance(f, Atom) else ((0, f),)
    atoms = [(arg.payload._d, arg.payload._v, arg.payload._n) for op, arg in plan if isinstance(arg, Atom)]
    digest.update(repr([plan] + atoms).encode())
print(digest.hexdigest())
"""


def test_plans_do_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parents[1] / "src"
    digests = set()
    for seed in (0, 4242):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed))
        done = subprocess.run(
            [sys.executable, "-c", _PLANS], capture_output=True, text=True, env=env, timeout=60, check=True
        )
        digests.add(done.stdout)
    assert len(digests) == 1
