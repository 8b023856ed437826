"""The benchmark's four workloads.

A workload turns a seed into an endless, deterministic stream of blocks.
A block is a list of ops with a fixed composition (the same mix of op
kinds every time, in seeded order), and a run takes whole blocks, so every
run measures the same mix.  Every input of an op is drawn when its block
is generated, before any op of the block is timed.

An op has three parts:

- ``run()`` is the timed work and returns the program's output;
- ``check(output)`` compares the output with an independent reference
  (an oracle, a closed form, ``eval_formula``, exact Fraction arithmetic,
  or an algebraic identity) and returns True when it agrees;
- ``size(output)`` counts the output: atoms of formulas, points + pieces
  + listed cosets of sets, coefficients of model elements.
"""

from __future__ import annotations

import random
from fractions import Fraction

from densepairs.coding import (
    FunctionCode,
    UnarySetCode,
    code_function,
    code_unary_set,
    codes_equal,
)
from densepairs.decomposition import Decomposition, decompose
from densepairs.evaluate import eval_formula
from densepairs.formulas import (
    FALSE,
    And,
    Exists,
    Formula,
    Not,
    Or,
    TheoryMode,
    all_atoms,
    free_variables,
    home_eq,
    home_lt,
    in_q,
    is_quantifier_free,
    make_and,
    make_not,
    make_or,
    quot_eq,
)
from densepairs.measure import BucketReport, MeasureValue, bucket_partition, measure
from densepairs.model import (
    Model,
    ModelElement,
    QuotientElement,
    rational_above,
    rational_below,
    rational_between,
    section,
)
from densepairs.oracles import oracle_exists_home, oracle_exists_quotient
from densepairs.parser import parse
from densepairs.qe import eliminate_exists_home, eliminate_exists_quotient, qe
from densepairs.randgen import (
    random_assignment,
    random_conjunction,
    random_element,
    random_qf_formula,
    random_quotient_element,
)
from densepairs.terms import HomeTerm, QuotientTerm, Sort, Variable, hvar, qvar

MODEL = Model(3)
X = hvar(1)
POVS = TheoryMode.POVS
PREC = TheoryMode.POVS_PREC


class Op:
    """One benchmark operation: timed ``run`` plus untimed ``check``/``size``."""

    __slots__ = ("kind", "run", "check", "size")

    def __init__(self, kind, run, check, size=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.size = size or output_size


def output_size(out) -> int:
    """Atoms of formulas, points + pieces + cosets of sets, terms of values."""
    if out is None or isinstance(out, bool):
        return 0
    if isinstance(out, Formula):
        return sum(1 for _ in all_atoms(out))
    if isinstance(out, (ModelElement, QuotientElement)):
        return len(out.coeffs)
    if isinstance(out, Decomposition):
        return (
            len(out.points)
            + len(out.pieces)
            + sum(len(p.cosets.members) for p in out.pieces)
        )
    if isinstance(out, UnarySetCode):
        return len(out.frontier) + len(out.pieces) + sum(len(p.cosets) for p in out.pieces)
    if isinstance(out, FunctionCode):
        return len(out.exceptional) + sum(1 + output_size(p.domain) for p in out.pieces)
    if isinstance(out, MeasureValue):
        return output_size(out.value)
    if isinstance(out, BucketReport):
        return sum(output_size(e.value) for e in out.entries)
    if isinstance(out, (list, tuple)):
        return sum(output_size(x) for x in out)
    raise TypeError(f"no size for {type(out).__name__}")


# ---------------------------------------------------------------------------
# crosscheck: eliminator vs witness oracle on single-quantifier conjunctions
# ---------------------------------------------------------------------------

CROSSCHECK_ASSIGNMENTS = 20
# (mode, bound sort) per block: criterion 1's 60/40 home/quotient split in
# povs, and a povs-prec slice that exercises the ordered-quotient oracle.
CROSSCHECK_BLOCK = [(POVS, Sort.HOME)] * 4 + [(POVS, Sort.QUOTIENT)] * 3 + [
    (PREC, Sort.HOME),
    (PREC, Sort.QUOTIENT),
    (PREC, Sort.QUOTIENT),
]


def _crosscheck_op(rng: random.Random, mode: TheoryMode, sort: Sort) -> Op:
    bound = Variable(sort, 0)
    if mode is POVS:
        context = [hvar(1), hvar(2), qvar(1)]
    else:
        context = [hvar(1), qvar(1), qvar(2)]
    conj = random_conjunction(rng, bound, context, MODEL, mode, 6)
    sigmas = [random_assignment(rng, context, MODEL) for _ in range(CROSSCHECK_ASSIGNMENTS)]

    def run():
        if sort is Sort.HOME:
            g = eliminate_exists_home(conj, bound, mode)
            oracle = [oracle_exists_home(conj, bound, s)[0] for s in sigmas]
        else:
            g = eliminate_exists_quotient(conj, bound, mode)
            ordered = mode is PREC
            oracle = [oracle_exists_quotient(conj, bound, s, ordered)[0] for s in sigmas]
        return g, [eval_formula(g, s) for s in sigmas], oracle

    def check(out):
        g, symbolic, oracle = out
        return is_quantifier_free(g) and symbolic == oracle

    kind = f"{'prec' if mode is PREC else 'povs'}.{sort.name.lower()}"
    return Op(kind, run, check, lambda out: output_size(out[0]))


def crosscheck_blocks(seed: int):
    rng = random.Random(seed)
    while True:
        block = [_crosscheck_op(rng, mode, sort) for mode, sort in CROSSCHECK_BLOCK]
        rng.shuffle(block)
        yield block


# ---------------------------------------------------------------------------
# qe_families: nested formulas with closed-form answers, parsed from text
# ---------------------------------------------------------------------------

# Eleven rungs, so that p50 falls inside one rung's cluster of times
# (prec_chain n=3) and p90 inside the near-equal prec_chain n=5 / alt n=2
# cluster, rather than between two clusters.
QE_LADDER = {"chain": (2, 3, 4, 5), "alt": (1, 2), "prec_chain": (1, 2, 3, 4, 5)}
# alt at n=3 costs about 34 s per instance (py3.11, shared 2-vCPU x86 VM):
# too long to repeat inside one run, so it is reported as excluded.
QE_EXCLUDED = [{"family": "alt", "n": 3, "reason": "excluded for time", "last_known_s": 34.0}]
QE_CHECK_ASSIGNMENTS = 6

# Which parameters are model constants is fixed per family; the seed draws
# their values.  The pattern moves QE cost far more than the values do, so
# fixing it keeps the cost of a rung the same from seed to seed.


def _home_constant(rng: random.Random) -> ModelElement:
    """A model constant such as 3/2 + r2 (never zero)."""
    c = random_element(rng, MODEL, 2)
    return c if c else ModelElement({3: Fraction(1)})


def _quotient_constant(rng: random.Random) -> str:
    w = random_quotient_element(rng, MODEL, 2)
    return str(w if w else QuotientElement({2: Fraction(1)}))


def _tail(c: ModelElement, k: int) -> str:
    """``+ k*c`` as text that can follow another summand."""
    text = str(c.scale(k))
    return f"- {text[1:]}" if text.startswith("-") else f"+ {text}"


def _chain_text(rng: random.Random, n: int):
    """E x1..xn. a < x1 < ... < xn < b & (Q(xi - c) | xi = 2d); answer a < b."""
    c, d = _home_constant(rng), _home_constant(rng)
    xs = [f"x{i}" for i in range(1, n + 1)]
    parts = ["x91 < x1"] + [f"{xs[i]} < {xs[i + 1]}" for i in range(n - 1)] + [f"{xs[-1]} < x92"]
    parts += [f"(Q({x} {_tail(c, -1)}) | {x} = {d.scale(2)})" for x in xs]
    text = "".join(f"E {x}. " for x in xs) + "(" + " & ".join(parts) + ")"
    return text, "x91 < x92", POVS


def _alt_text(rng: random.Random, n: int):
    """E x1. A x2. (x2 < x1 | AND_i (x1 < a_i | x2 > b_i | Q(x1 - x2 + c_i))); answer true."""
    conj = [
        f"(x1 < x{90 + i} | x2 > x{93 + i} | Q(x1 - x2 + x{96 + i}))" for i in range(1, n + 1)
    ]
    text = f"E x1. A x2. (x2 < x1 | ({' & '.join(conj)}))"
    return text, "true", POVS


def _prec_chain_text(rng: random.Random, n: int):
    """E u1..un. u91 prec u1 prec ... prec un prec u92 & (ui != w | ui prec v);
    answer u91 prec u92."""
    avoid, below = _quotient_constant(rng), _quotient_constant(rng)
    us = [f"u{i}" for i in range(1, n + 1)]
    parts = ["u91 prec u1"] + [f"{us[i]} prec {us[i + 1]}" for i in range(n - 1)]
    parts += [f"{us[-1]} prec u92"]
    parts += [f"({u} != {avoid} | {u} prec {below})" for u in us]
    text = "".join(f"E {u}. " for u in us) + "(" + " & ".join(parts) + ")"
    return text, "u91 prec u92", PREC


QE_FAMILIES = {"chain": _chain_text, "alt": _alt_text, "prec_chain": _prec_chain_text}


def _qe_op(rng: random.Random, family: str, n: int) -> Op:
    text, closed_text, mode = QE_FAMILIES[family](rng, n)
    closed = parse(closed_text, mode)
    free = sorted(free_variables(parse(text, mode)), key=lambda v: v.sort_key())
    sigmas = [random_assignment(rng, free, MODEL) for _ in range(QE_CHECK_ASSIGNMENTS)]

    def run():
        return qe(parse(text, mode), mode)

    def check(g):
        return is_quantifier_free(g) and all(
            eval_formula(g, s) == eval_formula(closed, s) for s in sigmas
        )

    return Op(f"{family}.n{n}", run, check)


def qe_families_blocks(seed: int):
    rng = random.Random(seed)
    rungs = [(family, n) for family, ns in QE_LADDER.items() for n in ns]
    while True:
        block = [_qe_op(rng, family, n) for family, n in rungs]
        rng.shuffle(block)
        yield block


# ---------------------------------------------------------------------------
# set_query / set_build: decompositions, measures and codes of unary sets
# ---------------------------------------------------------------------------


def targeted_probes(d: Decomposition, fill: list[ModelElement], count: int) -> list[ModelElement]:
    """Points, a rational inside each piece, each listed coset, an irrational
    shift and each finite left endpoint; then ``fill`` up to ``count``."""
    probes = list(d.points)
    for piece in d.pieces:
        lo = piece.lo.value if piece.lo.is_finite() else None
        hi = piece.hi.value if piece.hi.is_finite() else None
        if lo is not None and hi is not None:
            q = rational_between(lo, hi)
        elif lo is not None:
            q = rational_above(lo)
        elif hi is not None:
            q = rational_below(hi)
        else:
            q = Fraction(0)
        base = ModelElement.from_rational(q)
        probes.append(base)
        probes.extend(section(w) + base for w in piece.sorted_cosets())
        probes.append(base + ModelElement({3: Fraction(1, 5)}))
        if lo is not None:
            probes.append(lo)
    probes.extend(fill[: max(0, count - len(probes))])
    return probes[:count]


def _fill_points(rng: random.Random, count: int) -> list[ModelElement]:
    out = []
    for _ in range(count):
        coeffs = {0: Fraction(rng.randint(-20, 20), rng.randint(1, 9))}
        for k in (2, 3):
            if rng.random() < 0.5:
                coeffs[k] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        out.append(ModelElement(coeffs))
    return out


def boolean_rewrite(f: Formula, rng: random.Random) -> Formula:
    """An equivalent formula: shuffled children, De Morgan, double negation."""
    if isinstance(f, And):
        kids = [boolean_rewrite(c, rng) for c in f.children]
        rng.shuffle(kids)
        if rng.random() < 0.5:
            return make_not(make_or([make_not(k) for k in kids]))
        return make_and(kids + ([kids[0]] if rng.random() < 0.3 else []))
    if isinstance(f, Or):
        kids = [boolean_rewrite(c, rng) for c in f.children]
        rng.shuffle(kids)
        if rng.random() < 0.5:
            return make_not(make_and([make_not(k) for k in kids]))
        return make_or(kids)
    if isinstance(f, Not):
        return make_not(boolean_rewrite(f.sub, rng))
    return make_not(make_not(f)) if rng.random() < 0.3 else f


def function_formula(rng: random.Random) -> Formula:
    """The graph of a total function of x1: one line per case of a selector."""
    x, y = hvar(1), hvar(2)

    def line():
        slope = Fraction(rng.randint(-3, 3))
        intercept = ModelElement(
            {k: Fraction(rng.randint(-2, 2)) for k in (0, 2) if rng.random() < 0.7}
        )
        return home_eq(
            HomeTerm.from_variable(y)
            - HomeTerm.from_variable(x).scale(slope)
            - HomeTerm.from_element(intercept)
        )

    style = rng.random()
    if style < 0.2:
        return line()
    if style < 0.5:
        selector = in_q(HomeTerm.from_variable(x))
    elif style < 0.8:
        cut = ModelElement.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        selector = home_lt(HomeTerm.from_variable(x) - HomeTerm.from_element(cut))
    else:
        target = QuotientElement({2: Fraction(rng.randint(-2, 2))})
        selector = quot_eq(
            QuotientTerm.project_term(HomeTerm.from_variable(x))
            - QuotientTerm.from_element(target)
        )
    return make_or([make_and([selector, line()]), make_and([make_not(selector), line()])])


def _value_probes(f: Formula, fc: FunctionCode, points, others):
    """(value_at, verdict) at each point, judged by eval_formula: the value
    must lie on the graph, and an undefined point must have none of
    ``others`` on it."""
    x, y = hvar(1), hvar(2)
    out = []
    for m in points:
        value = fc.value_at(m)
        if value is not None:
            verdict = eval_formula(f, {x: m, y: value})
        else:
            verdict = not any(eval_formula(f, {x: m, y: p}) for p in others)
        out.append((value, verdict))
    return out


SET_PROBES = 200
FN_PROBES = 100
FN_POOL = 16


def _set_query_set_op(rng: random.Random) -> Op:
    f = random_qf_formula(rng, [X], MODEL, POVS, depth=3)
    fill = _fill_points(rng, SET_PROBES)

    def run():
        d = decompose(f, X)
        probes = targeted_probes(d, fill, SET_PROBES)
        return d, [d.contains(p) for p in probes], [eval_formula(f, {X: p}) for p in probes]

    def check(out):
        _, got, want = out
        return got == want

    return Op("decompose+contains", run, check, lambda out: output_size(out[0]))


def _set_query_fn_op(rng: random.Random, pool) -> Op:
    f, fc = pool[rng.randrange(len(pool))]
    points = [random_element(rng, MODEL) for _ in range(FN_PROBES)]
    others = [random_element(rng, MODEL) for _ in range(3)]

    def run():
        return _value_probes(f, fc, points, others)

    def check(out):
        return all(verdict for _, verdict in out)

    return Op("value_at", run, check, lambda out: output_size([v for v, _ in out]))


def set_query_blocks(seed: int):
    rng = random.Random(seed)
    pool = []
    for _ in range(FN_POOL):
        f = function_formula(rng)
        pool.append((f, code_function(f, hvar(1), hvar(2))))
    while True:
        block = [_set_query_set_op(rng) for _ in range(3)] + [_set_query_fn_op(rng, pool)]
        rng.shuffle(block)
        yield block


BUCKET_PARAMS = 20
BUILD_FN_PROBES = 8


def _additivity_op(rng: random.Random) -> Op:
    f = random_qf_formula(rng, [X], MODEL, POVS, depth=2)
    g = random_qf_formula(rng, [X], MODEL, POVS, depth=2)
    splitter = random_qf_formula(rng, [X], MODEL, POVS, depth=1)
    fa = make_and([f, splitter])
    gb = make_and([g, make_not(splitter)])

    def run():
        overlap = decompose(make_and([fa, gb]), X)
        return overlap, measure(make_or([fa, gb]), X), measure(fa, X), measure(gb, X)

    def check(out):
        overlap, union, a, b = out
        return overlap.is_empty() and union.value == a.value + b.value

    return Op("measure.additivity", run, check)


def _monotonicity_op(rng: random.Random) -> Op:
    f = random_qf_formula(rng, [X], MODEL, POVS, depth=2)
    g = random_qf_formula(rng, [X], MODEL, POVS, depth=1)
    stronger = make_and([f, g])

    def run():
        implication = qe(Exists(X, make_and([stronger, make_not(f)])), POVS)
        return implication, measure(stronger, X), measure(f, X)

    def check(out):
        implication, small, big = out
        return implication == FALSE and (big.value - small.value).sign() >= 0

    return Op("measure.monotonicity", run, check)


def _window_length(a: Fraction, b: Fraction) -> Fraction:
    """Length of (a, b) inside (0, 1), by Fraction arithmetic alone."""
    return max(Fraction(0), min(b, Fraction(1)) - max(a, Fraction(0)))


def _bucket_op(rng: random.Random) -> Op:
    k = rng.choice((5, 10, 100))
    pairs = []
    for _ in range(BUCKET_PARAMS):
        a = Fraction(rng.randint(-4, 8), rng.randint(1, 8))
        pairs.append((a, a + Fraction(rng.randint(0, 8), rng.randint(1, 8))))
    family = parse("x2 < x1 & x1 < x3")
    params = [
        {hvar(2): ModelElement.from_rational(a), hvar(3): ModelElement.from_rational(b)}
        for a, b in pairs
    ]

    def run():
        return bucket_partition(family, X, params, k)

    def check(report):
        values = {}
        for entry, (a, b) in zip(report.entries, pairs, strict=True):
            want = _window_length(a, b)
            bucket = max(1, -((-want * k) // 1))  # ceil, with ties going down
            if entry.value.rational() != want or entry.bucket != bucket:
                return False
            values.setdefault(entry.bucket, []).append(want)
        return all(max(v) - min(v) <= Fraction(2, k) for v in values.values())

    return Op("bucket_partition", run, check)


def _code_invariance_op(rng: random.Random) -> Op:
    f = random_qf_formula(rng, [X], MODEL, POVS, depth=3)
    g = boolean_rewrite(f, rng)

    def run():
        return code_unary_set(f, X), code_unary_set(g, X)

    def check(out):
        return codes_equal(*out)

    return Op("code_unary_set", run, check)


def _code_function_op(rng: random.Random) -> Op:
    f = function_formula(rng)
    points = [random_element(rng, MODEL) for _ in range(BUILD_FN_PROBES)]
    others = [random_element(rng, MODEL) for _ in range(3)]

    def run():
        fc = code_function(f, hvar(1), hvar(2))
        return fc, _value_probes(f, fc, points, others)

    def check(out):
        fc, probes = out
        return len(fc.exceptional) < 50 and all(verdict for _, verdict in probes)

    return Op("code_function", run, check, lambda out: output_size(out[0]))


SET_BUILD_KINDS = (
    _additivity_op,
    _monotonicity_op,
    _bucket_op,
    _code_invariance_op,
    _code_function_op,
)


def set_build_blocks(seed: int):
    rng = random.Random(seed)
    while True:
        block = [make(rng) for make in SET_BUILD_KINDS]
        rng.shuffle(block)
        yield block


WORKLOADS = {
    "crosscheck": crosscheck_blocks,
    "qe_families": qe_families_blocks,
    "set_query": set_query_blocks,
    "set_build": set_build_blocks,
}
