"""DNF and the clause step against independent references: `dnf_clauses`
gives the clauses, in the order, of `reference_dnf` (a second distribution
over the tree `nnf` builds), and the clause step substitutes per literal
with the outputs of `formulas.substitute` on each literal followed by
`simplify`.  A parsed formula is admitted once."""

import copy
import pickle
import random

import pytest

from densepairs import formulas
from densepairs.errors import ModeError
from densepairs.formulas import (
    FALSE,
    TRUE,
    And,
    AtomKind,
    Not,
    Or,
    TheoryMode,
    admit,
    all_atoms,
    dnf_clauses,
    literal_parts,
    make_and,
    make_not,
    simplify,
    substitute,
)
from densepairs.model import Model
from densepairs.parser import parse
from densepairs.qe import _eliminate_clause
from densepairs.randgen import random_conjunction, random_literal, random_qf_formula
from densepairs.terms import Sort, hvar, qvar
from reference_dnf import reference_dnf_clauses

MODEL = Model(3)
P = TheoryMode.POVS_PREC
VARIABLES = [hvar(1), hvar(2), hvar(3), qvar(1), qvar(2)]


def test_dnf_clauses_match_the_nnf_reference_on_seeded_formulas():
    rng = random.Random(4747)
    for i in range(600):
        f = random_qf_formula(rng, VARIABLES, MODEL, list(TheoryMode)[i % 3], depth=3)
        for g in (f, make_not(f), Not(f)):
            assert dnf_clauses(g) == reference_dnf_clauses(g), str(g)


EQ, IN_Q, LT, QEQ, PREC, Y = (
    parse(t, P) for t in ("x1 = 0", "Q(x1)", "x1 < 0", "u1 = 0", "u1 prec 0", "x2 < x1")
)
NOT_EQ, NOT_Q = Not(EQ), Not(IN_Q)

# unnormalized trees, built without make_and/make_or: (name, tree, its clause count)
HAND_BUILT = [
    ("complement one Or down", Or((EQ, Or((Y, NOT_EQ)))), 1),
    ("complement two Ors down", Or((Or((IN_Q, Y)), And((Y, EQ)), Or((Or((PREC, NOT_Q)),)*2))), 1),
    ("complement under a negated And", Or((Not(And((NOT_Q, Y))), NOT_Q)), 1),
    ("complement in different Ands", Or((And((EQ, Y)), And((NOT_EQ, Y)))), 2),
    ("complement under a negated Or under a negated And", Not(And((QEQ, Not(Or((Y, QEQ)))))), 1),
    ("complements inside conjunctions", Not(Or((And((QEQ, Y)), Not(Or((QEQ, Y)))))), 5),
    ("a conjunction with true is its literal", Or((And((EQ, TRUE)), NOT_EQ)), 1),
    ("a repeated conjunct is one literal", Or((And((IN_Q, IN_Q)), NOT_Q)), 1),
    ("a disjunction with false, under true", Or((And((Or((EQ, FALSE)), TRUE)), NOT_EQ)), 1),
    ("a contradictory conjunction is false", Or((And((Or((And((EQ, NOT_EQ)), QEQ)), QEQ)), Not(QEQ))), 1),
    ("repeated disjunctions collapse", Or((And((Or((EQ, IN_Q)), Or((EQ, IN_Q)))), NOT_EQ)), 1),
    ("reordered disjunctions do not", Or((And((Or((EQ, IN_Q)), Or((IN_Q, EQ)))), NOT_EQ)), 3),
    ("a contradiction deep in a conjunction", And((EQ, Or((And((NOT_EQ, Y)), NOT_EQ)), Or((QEQ, Y)))), 0),
    ("negated order atoms", Or((Not(LT), Not(PREC), LT)), 5),
    ("a negated order atom and its parts", And((Not(LT), Not(parse("-x1 < 0")))), 2),
    ("negations stacked", Or((Not(Not(Not(EQ))), Not(Not(EQ)))), 1),
    ("constants only", And((Or((FALSE, TRUE)), Not(FALSE))), 1),
    ("false under a negated Or", Not(Or((TRUE, EQ))), 0),
]


@pytest.mark.parametrize(
    "tree,count", [case[1:] for case in HAND_BUILT], ids=[case[0] for case in HAND_BUILT]
)
def test_dnf_clauses_match_the_nnf_reference_on_hand_built_trees(tree, count):
    for g in (tree, Not(tree)):
        assert dnf_clauses(g) == reference_dnf_clauses(g), str(g)
    assert len(dnf_clauses(tree)) == count


def _tree(rng, pool, depth):
    """A random unnormalized tree over a few atoms, so repeats and complements are common."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        if r < 0.025:
            return rng.choice([TRUE, FALSE])
        atom = rng.choice(pool)
        return atom if r < 0.12 else Not(atom) if r < 0.22 else Not(Not(atom))
    if r < 0.4:
        return Not(_tree(rng, pool, depth - 1))
    children = tuple(_tree(rng, pool, depth - 1) for _ in range(rng.randint(2, 3)))
    return And(children) if r < 0.7 else Or(children)


def test_dnf_clauses_match_the_nnf_reference_on_seeded_unnormalized_trees():
    rng = random.Random(4848)
    pool = [EQ, IN_Q, LT, QEQ, PREC, Y]
    true = 0
    for _ in range(2500):
        f = _tree(rng, pool, rng.randint(2, 5))
        for g in (f, Not(f)):
            clauses = dnf_clauses(g)
            assert clauses == reference_dnf_clauses(g), str(g)
            true += clauses == [()]
    assert true > 500  # the complement rule and its collapses were reached


def _reference_equation_step(literals, v):
    """The clause step's equation branch through `formulas.substitute`, then
    `simplify`; and how many substituted literals were ground."""
    keep = [lit for lit in literals if not literal_parts(lit)[0].payload.coeff_sign(v)]
    vlits = [lit for lit in literals if literal_parts(lit)[0].payload.coeff_sign(v)]
    witness = literals[0].payload.root(v)
    substituted = [substitute(o, v, witness) for o in vlits[1:]]
    ground = sum(literal_parts(lit)[0].payload.is_ground() for lit in substituted)
    return simplify(make_and(keep + substituted)), ground


def test_clause_step_substitutes_per_literal_as_formulas_substitute_does():
    rng = random.Random(4949)
    ground = 0
    for i in range(1500):
        mode = list(TheoryMode)[i % 3]
        v = qvar(1) if mode is not TheoryMode.OVS and i % 2 else hvar(1)
        variables = VARIABLES if mode is not TheoryMode.OVS else VARIABLES[:3]
        kind = AtomKind.HOME_EQ if v.sort is Sort.HOME else AtomKind.QUOT_EQ
        equation = None
        while equation is None or equation.kind is not kind:
            equation = literal_parts(random_literal(rng, variables, MODEL, mode, force=v))[0]
        rest = [random_literal(rng, variables, MODEL, mode, force=v if rng.random() < 0.6 else None)]
        rest += [random_literal(rng, variables[:2] + [v], MODEL, mode) for _ in range(rng.randint(0, 4))]
        # a clause of a folded formula, as `qe` gives the step, holds no ground literal
        literals = [equation] + [lit for lit in rest if not literal_parts(lit)[0].payload.is_ground()]
        literals = list(dict.fromkeys(literals))
        expected, folded = _reference_equation_step(literals, v)
        assert _eliminate_clause(literals, v) == expected, [str(lit) for lit in literals]
        ground += folded
    assert ground > 100  # the step folded ground literals


def test_clause_step_folds_the_bound_pairs_it_makes():
    x1 = hvar(1)
    assert _eliminate_clause([parse("1 < x1"), parse("x1 < 2")], x1) == TRUE
    assert _eliminate_clause([parse("x1 < 1"), parse("r2 < x1")], x1) == FALSE
    assert str(_eliminate_clause([parse("x2 < x1"), parse("x1 < 1"), parse("0 < x1")], x1)) == "x2 < 1"
    rng = random.Random(5050)
    for i in range(600):
        mode = list(TheoryMode)[i % 3]
        v = qvar(1) if mode is not TheoryMode.OVS and i % 2 else hvar(1)
        variables = [hvar(2), qvar(2)] if mode is not TheoryMode.OVS else [hvar(2)]
        clause = [
            lit
            for lit in random_conjunction(rng, v, variables, MODEL, mode)
            if not literal_parts(lit)[0].payload.is_ground()
            and (type(lit) is not Not or lit.sub.kind not in (AtomKind.HOME_LT, AtomKind.QUOT_PREC))
        ]
        got = _eliminate_clause(list(dict.fromkeys(clause)), v)
        assert not any(a.payload.is_ground() for a in all_atoms(got)), str(got)
        assert simplify(got) == got


def test_admit_marks_its_result_and_admits_a_marked_formula_at_once(monkeypatch):
    f = parse("E x1. (x2 < x1 & Q(x1))")
    fresh = parse("E x1. (x2 < x1 & Q(x1))", P)
    calls = []
    scan = formulas._scan
    monkeypatch.setattr(formulas, "_scan", lambda g: calls.append(g) or scan(g))
    assert admit(f, TheoryMode.POVS) is f and not calls
    assert admit(fresh, TheoryMode.POVS) is fresh and len(calls) == 1  # marked for povs-prec only
    with pytest.raises(ModeError):
        admit(f, TheoryMode.OVS)  # a mark is for its own mode
    renamed = admit(parse("x1 < 0 & E x1. x1 < x2"), TheoryMode.OVS)
    assert str(renamed) == "x1 < 0 & (E x3. x3 < x2)" and admit(renamed, TheoryMode.OVS) is renamed
    # equality, hashing and copies ignore the mark
    bare = And((parse("x2 < 0"), parse("Q(x2)")))
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert g == f and hash(g) == hash(f) and getattr(g, "_mode", None) is None
    assert admit(bare, P) == parse("x2 < 0 & Q(x2)") and hash(bare) == hash(parse("x2 < 0 & Q(x2)"))
