"""Boolean structure: normal forms, substitution, simplification."""

import copy
import hashlib
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densepairs.errors import CaptureError, ModeError, QuantifiedInputError, SortError, UnboundVariableError
from densepairs.evaluate import eval_formula
from densepairs.formulas import (
    FALSE,
    KINDS,
    LANGUAGE,
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
    admit,
    bound_variables,
    dnf_clauses,
    eval_atom,
    free_variables,
    ground,
    home_eq,
    home_lt,
    in_q,
    is_literal,
    literal_parts,
    make_and,
    make_atom,
    make_not,
    make_or,
    nnf,
    quotient_atom,
    simplify,
    substitute,
    to_dnf,
)
from densepairs.model import Model, ModelElement, QuotientElement, project, section
from densepairs.parser import parse
from densepairs.randgen import (
    _random_term,
    random_assignment,
    random_conjunction,
    random_literal,
    random_qf_formula,
    random_quantified_formula,
)
from densepairs.terms import HomeTerm, QuotientTerm, Sort, hvar, qvar

MODEL = Model(3)


def x(i):
    return HomeTerm.from_variable(hvar(i))


def test_connective_factories_normalize():
    a = in_q(x(1))
    assert make_and([a, TRUE]) == a
    assert make_and([a, FALSE]) == FALSE
    assert make_or([a, TRUE]) == TRUE
    assert make_and([a, make_not(a)]) == FALSE
    assert make_or([a, make_not(a)]) == TRUE
    assert make_not(make_not(a)) == a
    # a constant built apart from TRUE and FALSE negates by value
    assert make_not(BoolConst(False)) is TRUE
    # flattening keeps the two-child invariant meaningful
    b = in_q(x(2))
    c = in_q(x(3))
    assert make_and([a, make_and([b, c])]) == And((a, b, c))


def test_atom_payload_normalization_is_canonical():
    # 2x - 2y = 0 and x - y = 0 are the same atom; order atoms keep orientation
    assert home_eq(x(1).scale(2) - x(2).scale(2)) == home_eq(x(1) - x(2))
    assert home_lt(x(1).scale(3)) == home_lt(x(1))
    assert home_lt(x(1)) != home_lt(-x(1))
    assert in_q(x(1).scale(-2)) == in_q(x(1))


def test_de_morgan_and_distribution():
    a, b, c = in_q(x(1)), in_q(x(2)), in_q(x(3))
    assert to_dnf(make_not(make_and([a, b]))) == make_or([Not(a), Not(b)])
    assert to_dnf(a) == a
    got = to_dnf(make_and([make_or([a, b]), c]))
    assert got == make_or([make_and([a, c]), make_and([b, c])])


def test_to_dnf_rejects_quantifiers():
    with pytest.raises(QuantifiedInputError):
        to_dnf(Exists(hvar(1), in_q(x(1))))


def test_dnf_clauses_prune_contradictions_and_absorb():
    a, b = in_q(x(1)), in_q(x(2))
    assert dnf_clauses(make_and([a, make_not(a)])) == []
    assert dnf_clauses(TRUE) == [()]
    # (a) absorbs (a and b)
    clauses = dnf_clauses(make_or([a, make_and([a, b])]))
    assert clauses == [(a,)]


def test_negated_order_atoms_expand_in_nnf():
    f = make_not(home_lt(x(1)))  # not(x1 < 0)  <=>  x1 > 0 or x1 = 0
    clauses = dnf_clauses(f)
    assert len(clauses) == 2
    assert all(len(c) == 1 and isinstance(c[0], Atom) for c in clauses)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_to_dnf_preserves_pointwise_truth(seed):
    rng = random.Random(seed)
    variables = [hvar(1), hvar(2), qvar(1)]
    f = random_qf_formula(rng, variables, MODEL, TheoryMode.POVS, depth=3)
    g = to_dnf(f)
    assert is_dnf(g)
    for _ in range(5):
        sigma = random_assignment(rng, variables, MODEL)
        assert eval_formula(f, sigma) == eval_formula(g, sigma)


def is_dnf(f):
    if f in (TRUE, FALSE) or is_literal(f):
        return True
    if isinstance(f, And):
        return all(is_literal(c) for c in f.children)
    if isinstance(f, Or):
        return all(
            is_literal(c) or (isinstance(c, And) and all(is_literal(g) for g in c.children))
            for c in f.children
        )
    return False


def test_substitute_examples():
    f = parse("Q(x1)")
    g = substitute(f, hvar(1), x(2) + HomeTerm.from_element(ModelElement.from_rational(1)))
    assert g == parse("Q(x2 + 1)")

    f2 = parse("pi(x1) = u1")
    g2 = substitute(f2, hvar(1), x(3).scale(2))
    assert g2 == parse("pi(2*x3) = u1")

    f3 = parse("x1 < x2")
    g3 = substitute(f3, hvar(2), x(1))
    assert simplify(g3) == FALSE  # x1 < x1 simplifies to false later


def test_substitute_sort_and_capture_errors():
    with pytest.raises(SortError):
        substitute(parse("Q(x1)"), hvar(1), QuotientTerm.from_variable(qvar(1)))
    bound = Exists(hvar(2), parse("x1 < x2"))
    with pytest.raises(CaptureError):
        substitute(bound, hvar(1), x(2))


def test_capture_error_lists_variables_in_sort_key_order():
    bound = Exists(hvar(9), Exists(hvar(10), parse("x9 < x10 & x1 < 0")))
    with pytest.raises(CaptureError) as caught:
        substitute(bound, hvar(1), x(9) + x(10))
    assert str(caught.value) == "substitution would capture ['x9', 'x10']"


def test_random_literals_draw_exactly_the_language_of_their_mode():
    rng = random.Random(4141)
    variables = [hvar(1), hvar(2), qvar(1)]
    for mode in TheoryMode:
        drawn = []
        for _ in range(3000):
            lit = random_literal(rng, variables, MODEL, mode)
            assert admit(lit, mode) is lit
            drawn.append(literal_parts(lit)[0].kind)
        assert set(drawn) == set(LANGUAGE[mode])
        # a quotient-sort variable is mentioned only by the mode's quotient kinds
        quotient = [k for k in LANGUAGE[mode] if k in KINDS[Sort.QUOTIENT]]
        if quotient:
            forced = [random_literal(rng, variables, MODEL, mode, force=qvar(1)) for _ in range(300)]
            assert {literal_parts(lit)[0].kind for lit in forced} == set(quotient)


def test_a_quotient_force_in_a_mode_without_quotient_kinds_is_a_mode_error():
    # ovs has no quotient atom kind, so no literal of it mentions u1
    with pytest.raises(ModeError, match="ovs"):
        random_literal(random.Random(1), [qvar(1)], MODEL, TheoryMode.OVS, force=qvar(1))


# randgen promises the same draws bit for bit across runs and platforms, and
# every seeded corpus and self-check rests on that: this is their sha256
SEEDED_DRAWS_SHA256 = "bab0ad1dea587b4bd7a5b2f6e8c859390d2a3ddf554d7f4a2d7b376bfebc7b33"


def test_seeded_draws_are_pinned_and_a_forced_literal_mentions_its_force():
    h = hashlib.sha256()
    homes, quotients = [hvar(1), hvar(2), hvar(3)], [qvar(1), qvar(2)]
    variables = homes + quotients
    for seed in range(100):
        rng = random.Random(seed)
        mode = list(TheoryMode)[seed % 3]
        model = Model(3 + seed % 3)
        forces = (None, hvar(1)) if mode is TheoryMode.OVS else (None, hvar(1), qvar(1))
        for force in forces:
            for _ in range(10):
                lit = random_literal(rng, variables, model, mode, force)
                payload = literal_parts(lit)[0].payload
                assert payload.variables() <= set(variables), lit
                assert force is None or payload.coeff_sign(force) != 0, lit
                h.update(f"{lit}|{payload!r}\n".encode())
        context = homes[1:] + (quotients if mode is not TheoryMode.OVS else [])
        for lit in random_conjunction(rng, hvar(1), context, model, mode):
            h.update(f"{lit}\n".encode())
        for _ in range(3):
            h.update(f"{random_qf_formula(rng, variables, model, mode)}\n".encode())
        h.update(f"{random_quantified_formula(rng, model, mode)}\n".encode())
        for _ in range(2):
            sigma = random_assignment(rng, variables, model)
            h.update(f"{[sigma[v] for v in variables]!r}\n".encode())
        h.update(f"{rng.random()!r}\n".encode())
    assert h.hexdigest() == SEEDED_DRAWS_SHA256


@pytest.mark.parametrize(
    "kind, payload",
    [
        (AtomKind.HOME_EQ, QuotientTerm({qvar(1): 1})),
        (AtomKind.IN_Q, QuotientTerm({qvar(1): 1})),
        (AtomKind.QUOT_EQ, HomeTerm({hvar(1): 1})),
        (AtomKind.QUOT_PREC, HomeTerm({hvar(1): 1})),
    ],
)
def test_an_atom_refuses_a_payload_of_the_other_sort(kind, payload):
    message = f"{kind.value} atom with {type(payload).__name__} payload"
    with pytest.raises(SortError, match=f"^{message}$"):
        Atom(kind, payload)


def test_make_atom_rescales_as_its_kind_allows():
    # an equation or membership atom is the same under any nonzero rescaling,
    # an order atom under a positive one, and a negative one turns it around
    rng = random.Random(4242)
    variables = [hvar(1), hvar(2), qvar(1), qvar(2)]
    for sort in (Sort.HOME, Sort.QUOTIENT):
        eq, order = KINDS[sort]
        kinds = [eq, AtomKind.IN_Q] if sort is Sort.HOME else [eq]
        for _ in range(1000):
            t = _random_term(rng, variables, MODEL, None, sort)
            q = Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 7))
            for kind in kinds:
                assert make_atom(kind, t.scale(q)) == make_atom(kind, t)
            assert make_atom(order, t.scale(q)) == make_atom(order, t if q > 0 else -t)


def test_quotient_atom_says_what_its_coset_atom_says():
    # the atom on x1 against its stand-in u99 for pi(x1), at x1 on the atom's
    # own coset and at two seeded points
    rng = random.Random(4343)
    x1, u99 = hvar(1), qvar(99)
    variables = [x1, hvar(2), qvar(1)]
    coset_kinds = (AtomKind.IN_Q, AtomKind.QUOT_EQ, AtomKind.QUOT_PREC)
    seen = set()
    for _ in range(2000):
        a = literal_parts(random_literal(rng, variables, MODEL, TheoryMode.POVS_PREC, force=x1))[0]
        if a.kind not in coset_kinds:
            continue
        w = quotient_atom(a, {x1: u99})
        for i in range(3):
            sigma = random_assignment(rng, variables, MODEL)
            if i == 0:
                root = a.payload.root(x1).evaluate(sigma)
                sigma[x1] = section(root) if isinstance(root, QuotientElement) else root
            rest = {v: value for v, value in sigma.items() if v != x1}
            truth = eval_atom(a, sigma)
            assert truth == eval_atom(w, {**rest, u99: project(sigma[x1])}), (a, w, sigma)
            seen.add((a.kind, truth))
    assert seen == {(kind, truth) for kind in coset_kinds for truth in (True, False)}


def test_standardize_renames_collisions():
    inner = Exists(hvar(1), in_q(x(1)))
    f = make_and([in_q(x(1)), inner])  # x1 both free and bound
    g = admit(f, TheoryMode.POVS_PREC)
    assert free_variables(g) == {hvar(1)}
    assert hvar(1) not in bound_variables(g)
    # nested same-name binders become distinct
    h = admit(
        Exists(hvar(1), make_and([in_q(x(1)), Exists(hvar(1), in_q(x(1)))])), TheoryMode.POVS_PREC
    )
    assert len(bound_variables(h)) == 2
    # three nested binders of one name get three names, none reused
    k = parse("E x1. E x1. E x1. x1 < 0")
    assert len(bound_variables(k)) == 3
    assert str(k) == "E x1. E x0. E x2. x2 < 0"
    # a fresh name must differ from every name an enclosing binder uses, or
    # x1 < x2 below would become x2 < x2
    assert str(parse("x1 < 0 & E x2. E x1. x1 < x2")) == "x1 < 0 & (E x2. E x3. x3 < x2)"


def test_simplify_folds_ground_atoms():
    assert simplify(parse("1 < 2")) == TRUE
    assert simplify(parse("r2 < 1")) == FALSE
    assert simplify(parse("Q(r2)")) == FALSE
    assert simplify(parse("Q(2/3)")) == TRUE
    assert simplify(parse("x1 < x1")) == FALSE
    assert simplify(parse("pi(r2) != pi(r3)")) == TRUE
    assert simplify(Forall(hvar(1), TRUE)) == TRUE
    assert simplify(Exists(hvar(1), parse("1 = 2"))) == FALSE


def test_no_nested_quotient_applications_representable():
    # structural scan: every payload's pushed part is a pure home combination
    f = parse("2*u1 - u2 + pi(2*x1 - x2 + r2) = pi(x3)")
    from densepairs.formulas import all_atoms

    for atom in all_atoms(f):
        payload = atom.payload
        if isinstance(payload, QuotientTerm):
            assert all(v.sort.value == "home" for v in payload.pushed.variables())
            assert payload.pushed.constant.is_zero()


# Term and formula outputs pinned at the commit before the two term classes
# shared one coefficient map.  Each case is (theory, input, operation, output);
# the operations are the ones of `_formula_outputs`.
GOLDEN_FORMULA_CASES = [
    ("povs", "2*x1 - x3 + 3/2 + r2 < 0", "str", "x1 + 3/4 + 1/2*r2 < 1/2*x3"),
    ("povs", "2*u1 - u2 + pi(x1 + r2) = 0", "str", "u1 + pi(1/2*x1 + 1/2*r2) = 1/2*u2"),
    ("povs", "pi(x2 + 3*x1) = u1", "str", "u1 = pi(3*x1 + x2)"),
    ("povs", "pi(1) = 0", "str", "pi(0) = 0"),
    ("povs-prec", "!(2*u1 prec pi(x1 - 2*x2 + r3))", "dnf",
     "pi(1/2*x1 + 1/2*r3) prec u1 + pi(x2) | u1 + pi(x2) = pi(1/2*x1 + 1/2*r3)"),
    ("povs", "x1 < x2 & (Q(x1) | x1 = 2*x2)", "dnf",
     "Q(x1) & x1 < x2 | x1 < x2 & x1 = 2*x2"),
    ("povs", "pi(x1) = u1 & Q(x1 - x2)", "sub_home", "u1 = pi(x3 + 1/2*r2) & Q(x2 - x3 - 1/2*r2)"),
    ("povs", "2*u1 + pi(x1) = 0 | u1 != pi(r2)", "sub_quot",
     "u2 + pi(1/2*x1 + 1/2*x2) = 0 | u2 + pi(1/2*x2) != pi(r2)"),
    ("povs-prec", "u1 prec pi(x1 + x2) & Q(x2)", "ground",
     "pi(r2) prec pi(x1 + r3) & Q(1 + r3)"),
    ("povs", "Q(x1 + r2) & pi(x2) = u1", "ground", "Q(x1 + r2) & pi(r2) = pi(r3)"),
]


def _formula_outputs(f, mode):
    """The outputs of every term- and formula-level operation on f, as text.

    Substitutions replace x1 by x3 + 1/2*r2 and u1 by u2 + pi(1/2*x2);
    grounding keeps x1 and sends x2 to 1 + r3, x3 to r2, u1 to pi(r2)
    and u2 to pi(r3 - r5).
    """
    home = HomeTerm({hvar(3): 1}, ModelElement({2: Fraction(1, 2)}))
    quot = QuotientTerm({qvar(2): 1}, HomeTerm({hvar(2): Fraction(1, 2)}))
    sigma = {
        hvar(2): ModelElement({0: 1, 3: 1}),
        hvar(3): ModelElement({2: 1}),
        qvar(1): QuotientElement({2: 1}),
        qvar(2): QuotientElement({3: 1, 5: -1}),
    }
    clauses = dnf_clauses(f)
    out = {
        "str": str(f),
        "parse": str(parse(str(f), mode)),
        "dnf": " | ".join(" & ".join(str(l) for l in c) for c in clauses) or "false",
        "simplify": str(simplify(f)),
        "sub_home": str(substitute(f, hvar(1), home)),
        "ground": str(ground(f, {hvar(1)}, sigma)),
    }
    if mode is not TheoryMode.OVS:
        out["sub_quot"] = str(substitute(f, qvar(1), quot))
    return out


def formula_corpus_text(seed=4114, formulas=150):
    """One line per output on a seeded corpus of random formulas."""
    rng = random.Random(seed)
    variables = [hvar(1), hvar(2), hvar(3), qvar(1), qvar(2)]
    lines = []
    for i in range(formulas):
        mode = list(TheoryMode)[i % 3]
        f = random_qf_formula(rng, variables, MODEL, mode, depth=2)
        for op, text in _formula_outputs(f, mode).items():
            lines.append(f"{i} {mode.value} {op} {text}")
    return "\n".join(lines) + "\n"


GOLDEN_FORMULA_CORPUS_SHA256 = "c42f2346a22ce907bfe2dd49bb81c3cfbd31f1c8287f325c45a6c64b1b004d2f"


@pytest.mark.parametrize("case", GOLDEN_FORMULA_CASES, ids=lambda c: f"{c[2]}: {c[1]}")
def test_golden_formula_cases(case):
    theory, text, op, expected = case
    mode = TheoryMode(theory)
    assert _formula_outputs(parse(text, mode), mode)[op] == expected


def test_golden_formula_corpus():
    text = formula_corpus_text()
    assert text.count("\n") == 1000
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_FORMULA_CORPUS_SHA256


def naive_dnf_clauses(f):
    """Reference DNF: the full cross product, contradictions pruned,
    absorption once at the end, literals and clauses ordered by text."""

    def walk(h):
        if h == TRUE:
            return [frozenset()]
        if h == FALSE:
            return []
        if is_literal(h):
            return [frozenset([h])]
        if isinstance(h, Or):
            return [clause for c in h.children for clause in walk(c)]
        acc = [frozenset()]
        for c in h.children:
            acc = [a | b for a in acc for b in walk(c)]
            acc = [u for u in acc if not any(make_not(lit) in u for lit in u)]
        return acc

    clauses = set(walk(nnf(f)))
    minimal = [c for c in clauses if not any(other < c for other in clauses)]
    named = [tuple(sorted(c, key=str)) for c in minimal]
    return sorted(named, key=lambda c: [str(lit) for lit in c])


def _family_bodies(n):
    """Matrices of the chain and alternation families and their negations."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    chain = " & ".join(
        ["x91 < x1"]
        + [f"{xs[i]} < {xs[i + 1]}" for i in range(n - 1)]
        + [f"{xs[-1]} < x92"]
        + [f"(Q({x} - r2) | {x} = 2 + 2*r3)" for x in xs]
    )
    conj = [f"(x1 < x{90 + i} | x2 > x{93 + i} | Q(x1 - x2 + x{96 + i}))" for i in range(1, n + 1)]
    alt = f"x2 < x1 | ({' & '.join(conj)})"
    bodies = [parse(chain, TheoryMode.POVS), parse(alt, TheoryMode.POVS)]
    return bodies + [make_not(b) for b in bodies]


def _dnf_reference_inputs():
    rng = random.Random(5150)
    variables = [hvar(1), hvar(2), hvar(3), qvar(1), qvar(2)]
    for i in range(240):
        yield random_qf_formula(rng, variables, MODEL, list(TheoryMode)[i % 3], depth=3)
    for n in (1, 2, 3):
        yield from _family_bodies(n)


def test_dnf_clauses_match_naive_reference():
    for f in _dnf_reference_inputs():
        clauses = dnf_clauses(f)
        assert clauses == naive_dnf_clauses(f), str(f)
        sets = [frozenset(c) for c in clauses]
        for i, c in enumerate(sets):
            assert not any(make_not(lit) in c for lit in c)
            assert not any(other <= c for j, other in enumerate(sets) if j != i)


def test_eval_formula_short_circuits_left_to_right():
    # x2 is left unbound: a connective stops at the first child that decides it
    neg = {hvar(1): ModelElement.from_rational(-1)}
    pos = {hvar(1): ModelElement.from_rational(1)}
    assert eval_formula(parse("x1 < 0 | x2 < 0"), neg) is True
    assert eval_formula(parse("x1 < 0 & x2 < 0"), pos) is False
    assert eval_formula(parse("x1 < 0 | E x2. x2 < 0"), neg) is True
    with pytest.raises(UnboundVariableError):
        eval_formula(parse("x1 < 0 | x2 < 0"), pos)


def test_formulas_survive_pickle_and_copy():
    # a node stores its hash when built, so a copy must be built, not patched
    f = parse("E x1. x1 < x2 & Q(x2) | !(u1 = pi(r2)) | A u2. u2 prec u1", TheoryMode.POVS_PREC)
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert g == f and hash(g) == hash(f) and str(g) == str(f)
    assert {v: 1 for v in free_variables(f)}[pickle.loads(pickle.dumps(hvar(2)))] == 1


_PICKLED = """
import copy, pickle
from densepairs.evaluate import eval_formula
from densepairs.formulas import TheoryMode
from densepairs.model import ModelElement, QuotientElement
from densepairs.parser import parse
from densepairs.terms import HomeTerm, QuotientTerm, hvar, qvar

home = ModelElement({0: 1, 2: -3})
objects = (
    parse("x1 < x2 & Q(x2) | u1 prec pi(x1 + r2)", TheoryMode.POVS_PREC),
    HomeTerm({hvar(1): 2}, home),
    QuotientTerm({qvar(1): 1}, HomeTerm({hvar(2): 1}), QuotientElement({3: 5})),
    home,
    QuotientElement({2: 1, 3: -1}),
    parse("!(x1 < x2) & (Q(x2) | x1 = 2*x2 + r3)"),
    ModelElement({0: "1/3", 3: "-2/7"}),
)
[hash(o) for o in objects]
# the formula carries what evaluation caches, plans on the nodes it reached;
# a term or an element keeps its row and no cache beside its hash
assert eval_formula(objects[5], {hvar(1): objects[6], hvar(2): home}) is False
assert objects[1].evaluate({hvar(1): home}) == ModelElement({0: 3, 2: -9})
assert objects[6].sign() == -1


def cached(o):  # whether o, or a node below it, keeps a plan
    stack = [o]
    while stack:
        g = stack.pop()
        if getattr(g, "_plan", None) is not None:
            return True
        stack.extend(getattr(g, "children", ()))
        stack.extend([g.sub] if hasattr(g, "sub") else [])
        stack.extend([g.payload] if hasattr(g, "payload") else [])
    return False


assert cached(objects[5]) and objects[1]._hash is not None and objects[6]._hash is not None
"""


def test_pickles_load_in_a_process_with_another_hash_seed():
    # cached hashes mix in string hashes, which differ between processes
    src = Path(__file__).resolve().parents[1] / "src"

    def run(seed, code, given=None):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed))
        command = [sys.executable, "-c", _PICKLED + code]
        done = subprocess.run(
            command, input=given, capture_output=True, text=True, env=env, timeout=60, check=True
        )
        return done.stdout

    dumped = run(
        1,
        "copies = [copy.deepcopy(o) for o in objects]\n"
        "assert all(c == o and hash(c) == hash(o) and not cached(c) for c, o in zip(copies, objects))\n"
        "print(pickle.dumps(objects).hex())",
    )
    same = run(
        2,
        "loaded = pickle.loads(bytes.fromhex(input()))\n"
        "print([a == b and hash(a) == hash(b) and not cached(a) for a, b in zip(loaded, objects)])",
        dumped,
    )
    assert same == "[True, True, True, True, True, True, True]\n"
