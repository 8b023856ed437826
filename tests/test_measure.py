"""Exact measure values, additivity, monotonicity, and bucket reports."""

import json
import random
import sys
import time
from fractions import Fraction

import jsonschema
import pytest

from densepairs import formulas, schemas
from densepairs.coding import code_function, code_unary_set
from densepairs.decomposition import decompose, is_small
from densepairs.errors import InternalError, ModeError, NotGroundError, SortError
from densepairs.evaluate import eval_formula
from densepairs.formulas import FALSE, AtomKind, TheoryMode, all_atoms, make_and, make_not, make_or
from densepairs.measure import (
    BucketEntry,
    BucketReport,
    bucket_index,
    _unit_window,
    bucket_partition,
    measure,
)
from densepairs.model import Model, ModelElement, QuotientElement, compare
from densepairs.parser import parse, parse_element
from densepairs.qe import qe
from densepairs.randgen import random_element, random_qf_formula, random_quotient_element
from densepairs.terms import HomeTerm, hvar, qvar

MODEL = Model(3)
X = hvar(1)


def mval(text):
    return measure(parse(text), X).value


def test_normalization():
    assert mval("0 < x1 & x1 < 1") == ModelElement.from_rational(1)
    assert mval("x1 < x1") == ModelElement()
    assert measure(FALSE, X).value == ModelElement()


def test_unit_window_bounds_are_the_home_lt_atoms():
    # the window's bounds are built directly, in the normal form home_lt gives
    f = parse("x2 < x1 | Q(x1)")
    for v in (hvar(1), hvar(2), hvar(7)):
        x = HomeTerm.from_variable(v)
        one = HomeTerm.from_element(ModelElement.from_rational(1))
        want = make_and([f, formulas.home_lt(-x), formulas.home_lt(x - one)])
        got = _unit_window(f, v)
        assert got == want and hash(got) == hash(want) and str(got) == str(want)
    with pytest.raises(SortError, match="variable u1 is not of sort home"):
        _unit_window(f, qvar(1))


def test_small_sets_are_null():
    assert mval("Q(x1)") == ModelElement()
    assert mval("pi(x1) = pi(r2)") == ModelElement()
    assert mval("x1 = 1/2") == ModelElement()


def test_interval_lengths():
    assert mval("0 < x1 & x1 < 1/2") == ModelElement.from_rational(Fraction(1, 2))
    assert mval("1/4 < x1 & x1 < 3/4") == ModelElement.from_rational(Fraction(1, 2))
    # clipping to the unit window
    assert mval("x1 > 1/2") == ModelElement.from_rational(Fraction(1, 2))
    assert mval("x1 < 10") == ModelElement.from_rational(1)


def test_irrational_endpoint_gives_exact_element():
    got = mval("x1 > r2 - 1 & x1 < 1")
    expected = ModelElement({0: Fraction(2), 2: Fraction(-1)})  # 2 - sqrt2
    assert got == expected
    lo, hi = got.enclosure(64)
    assert lo > Fraction(58, 100) and hi < Fraction(59, 100)


def test_coset_complement_has_full_measure():
    # removing a small set does not change the measure
    assert mval("!Q(x1)") == ModelElement.from_rational(1)
    assert mval("!Q(x1) & x1 != 1/2*r2") == ModelElement.from_rational(1)
    assert mval("Q(x1) | x1 = 1/2*r2") == ModelElement()


def test_two_valued_on_invariant_sets():
    # coset-bounded sets take measure 0 or 1 on the window, never in between
    texts = ["Q(x1)", "!Q(x1)", "pi(x1) != pi(r2)", "pi(2*x1) = pi(r3)"]
    for text in texts:
        f = parse(text)
        value = measure(f, X).value
        window = parse("0 < x1 & x1 < 1")
        d = decompose(make_and([f, window]), X)
        if is_small(d):
            assert value == ModelElement()
        else:
            assert value == ModelElement.from_rational(1)


def test_finite_additivity_exact():
    rng = random.Random(1001)
    tried = 0
    while tried < 40:
        f = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=2)
        g = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=2)
        window = parse("0 < x1 & x1 < 1")
        if not decompose(make_and([f, g, window]), X).is_empty():
            continue  # need disjoint pairs on the window
        tried += 1
        total = measure(make_or([f, g]), X).value
        assert total == measure(f, X).value + measure(g, X).value


def test_monotonicity_exact():
    rng = random.Random(1002)
    checked = 0
    while checked < 40:
        f = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=2)
        g = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=2)
        implies = qe(make_not(make_or([make_not(f), g])), TheoryMode.POVS)
        # f implies g iff f & !g defines the empty set
        if not decompose(make_and([f, make_not(g)]), X).is_empty():
            continue
        checked += 1
        assert compare(measure(f, X).value, measure(g, X).value) <= 0


def test_requires_ground_parameters():
    with pytest.raises(NotGroundError):
        measure(parse("x1 < x2"), X)
    value = measure(parse("x1 < x2"), X, {hvar(2): parse_element("1/3")}).value
    assert value == ModelElement.from_rational(Fraction(1, 3))


def test_bucket_index_tie_goes_down():
    assert bucket_index(ModelElement(), 10) == 1
    assert bucket_index(ModelElement.from_rational(Fraction(1, 10)), 10) == 1
    assert bucket_index(ModelElement.from_rational(Fraction(11, 100)), 10) == 2
    assert bucket_index(ModelElement.from_rational(1), 10) == 10
    assert bucket_index(ModelElement({0: Fraction(2), 2: Fraction(-1)}), 10) == 6


def test_bucket_partition_example():
    f = parse("0 < x1 & x1 < x2")
    params = [
        {hvar(2): parse_element("1/4")},
        {hvar(2): parse_element("3/10")},
    ]
    report = bucket_partition(f, X, params, 10)
    assert isinstance(report, BucketReport)
    assert [e.bucket for e in report.entries] == [3, 3]
    assert [e.value for e in report.entries] == [
        ModelElement.from_rational(Fraction(1, 4)),
        ModelElement.from_rational(Fraction(3, 10)),
    ]


def test_bucket_partition_small_sets_land_in_bucket_one():
    report = bucket_partition(
        parse("Q(x1 - x2)"),
        X,
        [{hvar(2): parse_element("r2")}, {hvar(2): parse_element("1/2")}],
        7,
    )
    assert all(e.bucket == 1 or e.value == ModelElement.from_rational(1) for e in report.entries)
    assert report.entries[0].value == ModelElement()  # sqrt2-coset is small


def test_bucket_bound_within_buckets():
    rng = random.Random(1003)
    f = parse("0 < x1 & x1 < x2")
    params = [
        {hvar(2): ModelElement.from_rational(Fraction(rng.randint(0, 12), 12))}
        for _ in range(30)
    ]
    for k in (5, 10, 100):
        report = bucket_partition(f, X, params, k)
        by_bucket = {}
        for entry in report.entries:
            by_bucket.setdefault(entry.bucket, []).append(entry.value)
        for values in by_bucket.values():
            for a in values:
                for b in values:
                    diff = a - b
                    if diff.sign() < 0:
                        diff = -diff
                    assert compare(diff, ModelElement.from_rational(Fraction(2, k))) <= 0


def test_report_serialization():
    report = bucket_partition(
        parse("0 < x1 & x1 < x2"), X, [{hvar(2): parse_element("1/4")}], 10
    )
    data = report.to_json()
    jsonschema.validate(data, schemas.BUCKET_REPORT_SCHEMA)
    assert data["k"] == 10
    assert data["assignments"][0]["params"] == {"x2": {"0": "1/4"}}
    assert data["assignments"][0]["bucket"] == 3
    params = [{hvar(2): parse_element("1/3 + 1/4*r2"), qvar(1): QuotientElement({2: 1})}]
    data = bucket_partition(parse("0 < x1 & x1 < x2 & pi(x1) != u1"), X, params, 10).to_json()
    jsonschema.validate(data, schemas.BUCKET_REPORT_SCHEMA)
    assert data["assignments"][0]["params"] == {"u1": {"2": "1"}, "x2": {"0": "1/3", "2": "1/4"}}
    assert data["assignments"][0]["measure"] == {"0": "1/3", "2": "1/4"}


# ---------------------------------------------------------------------------
# bucket_partition against the per-tuple loop it replaced
# ---------------------------------------------------------------------------


def reference_bucket_index(value, k):
    """The linear-scan reference for bucket_index: the least j with value <= j/k."""
    for j in range(1, k + 1):
        if compare(value, ModelElement.from_rational(Fraction(j, k))) <= 0:
            return j
    raise InternalError(f"value {value} above 1")


def reference_bucket_partition(f, v, params, k):
    """The loop bucket_partition ran before it eliminated the family once:
    one full `measure`, with its grounding and elimination, per tuple."""
    if k < 1:
        raise ValueError("k must be at least 1")
    entries = []
    for assignment in params:
        value = measure(f, v, assignment).value
        ordered = tuple(sorted(assignment.items(), key=lambda kv: kv[0].sort_key()))
        entries.append(BucketEntry(ordered, reference_bucket_index(value, k), value))
    return BucketReport(k, tuple(entries))


R2 = parse_element("r2")
TINY = R2.scale(Fraction(1, 10**15))
NEAR_ZERO = R2 - ModelElement.from_rational(Fraction(1414213562373095, 10**15))  # about 4.9e-17


def test_bucket_index_bisects_like_the_linear_scan():
    def element(q):
        return ModelElement.from_rational(q)

    for k in range(1, 61):
        for j in range(0, k + 1):
            at = Fraction(j, k)
            for value in (element(at), element(at - Fraction(1, 1000 * k))):
                assert bucket_index(value, k) == reference_bucket_index(value, k), (k, value)
            above = element(at + Fraction(1, 1000 * k))
            if j < k:
                assert bucket_index(above, k) == reference_bucket_index(above, k), (k, above)
            else:
                with pytest.raises(InternalError):
                    bucket_index(above, k)
        irrationals = [element(Fraction(2)) - R2, R2 - element(Fraction(1)), R2.scale(Fraction(1, 2))]
        irrationals += [element(Fraction(j, k)) - R2.scale(Fraction(1, 10**6)) for j in (1, k)]
        for value in irrationals:
            assert bucket_index(value, k) == reference_bucket_index(value, k), (k, value)
        # within 1.4e-15 of a tie, and within 4.9e-17 of it by a near cancellation
        # whose 32-bit enclosure straddles the tie, so that the bits must grow
        for j in (1, (k + 1) // 2, k):
            for offset in (TINY, NEAR_ZERO):
                for value in (element(Fraction(j, k)) - offset, element(Fraction(j, k)) + offset):
                    if offset is NEAR_ZERO:
                        lo, hi = value.enclosure(32)
                        assert lo * k < j < hi * k, (k, value)
                    if j == k and value > element(Fraction(1)):
                        with pytest.raises(InternalError):
                            bucket_index(value, k)
                    else:
                        assert bucket_index(value, k) == reference_bucket_index(value, k), (k, value)
    # exact ties and their near neighbours at k = 10**6, where the linear
    # scan is too slow: the bucket j is the one with (j - 1)/k < value <= j/k
    k = 10**6
    for j in (1, 2, 3, 499_999, 500_000, 585_786, 999_999, k):
        tie = element(Fraction(j, k))
        assert bucket_index(tie, k) == j
        assert bucket_index(tie - NEAR_ZERO, k) == j
        if j < k:
            assert bucket_index(tie + NEAR_ZERO, k) == j + 1
            assert bucket_index(tie + TINY, k) == j + 1


def test_bucket_index_refuses_k_below_one():
    # before it reads the value, as bucket_partition refuses such a k
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be at least 1"):
            bucket_index(ModelElement.from_rational(Fraction(1, 2)), k)
        with pytest.raises(ValueError, match="k must be at least 1"):
            bucket_index(None, k)


def test_bucket_index_is_fast_for_large_k():
    start = time.perf_counter()
    assert bucket_index(ModelElement.from_rational(2) - R2, 10**6) == 585787
    assert bucket_index(ModelElement.from_rational(1), 10**6) == 10**6
    assert bucket_index(ModelElement(), 10**6) == 1
    assert time.perf_counter() - start < 0.1


QUANTIFIED_FAMILY = "E x4. (x2 < x4 & x4 < x1 & x1 < x3 + x4 & (Q(x4) | x4 < x3))"


def family_corpus(seed=2121, families=44):
    """(family, params, k): seeded families in x1 with home parameters x2,
    x3 and the quotient parameter u1, then the quantified family."""
    rng = random.Random(seed)
    variables = [X, hvar(2), hvar(3), qvar(1)]
    interval = parse("x2 < x1 & x1 < x3")

    def home():  # mostly near the unit window
        rational = ModelElement.from_rational(Fraction(rng.randint(-2, 10), 8))
        return rational + random_element(rng, MODEL, 1).scale(Fraction(1, 4))

    def tuples(n):
        return [
            {hvar(2): home(), hvar(3): home(), qvar(1): random_quotient_element(rng, MODEL, 1)}
            for _ in range(n)
        ]

    ks = (1, 5, 10, 100)
    out = []
    for i in range(families):
        f = random_qf_formula(rng, variables, MODEL, TheoryMode.POVS, depth=rng.choice((2, 3)))
        f = (make_and, make_or, lambda fs: fs[0])[i % 3]([f, interval])
        out.append((f, tuples(rng.randint(1, 6)), ks[i % 4]))
    for k in ks:
        out.append((parse(QUANTIFIED_FAMILY), tuples(6), k))
    return out


def test_bucket_partition_matches_the_per_tuple_loop():
    corpus = family_corpus()
    kinds = {
        a.kind
        for f, _, _ in corpus
        for a in all_atoms(f)
        if a.payload.coeff(X) and a.payload.variables() - {X}
    }
    # coset and quotient atoms on x1 that also hold a parameter
    assert {AtomKind.IN_Q, AtomKind.QUOT_EQ} <= kinds
    measures = set()
    for f, params, k in corpus:
        got = bucket_partition(f, X, params, k).to_json()
        want = reference_bucket_partition(f, X, params, k).to_json()
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), str(f)
        measures.update(json.dumps(e["measure"], sort_keys=True) for e in got["assignments"])
    assert len(measures) > 20  # not only 0 and 1


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return info.type, str(info.value)


def test_bucket_partition_raises_what_the_per_tuple_loop_raised_first():
    half = ModelElement.from_rational(Fraction(1, 2))
    coset = QuotientElement({2: Fraction(1)})
    bound = {hvar(2): half, qvar(1): coset, qvar(2): coset}
    unbound = {qvar(1): coset, qvar(2): coset}
    family = parse("x1 < x2 & pi(x1) != u1")
    prec_family = parse("x1 < x2 & u1 prec u2", TheoryMode.POVS_PREC)
    cases = [
        # k is checked before anything else
        (family, X, [unbound], 0, ValueError),
        # no tuple: f and v are never looked at
        (prec_family, qvar(1), [], 5, None),
        # the window rejects a quotient-sort v first
        (prec_family, qvar(1), [unbound], 5, SortError),
        # an unbound parameter in the first and in the third tuple
        (family, X, [unbound, bound, bound], 5, NotGroundError),
        (family, X, [bound, bound, unbound], 5, NotGroundError),
        # a first tuple's unbound parameter comes before the mode
        (prec_family, X, [unbound, bound], 5, NotGroundError),
        (prec_family, X, [bound, unbound], 5, ModeError),
        # a parameter the elimination drops is still checked for its sort
        (parse("x1 < 1/2 & E x3. x3 < x2"), X, [bound, {hvar(2): coset}], 5, TypeError),
        (parse("x1 < 1/2 & E u3. u3 = u1"), X, [{qvar(1): half}], 5, TypeError),
    ]
    for f, v, params, k, error in cases:
        if error is None:
            assert bucket_partition(f, v, params, k) == BucketReport(k, ())
            assert reference_bucket_partition(f, v, params, k) == BucketReport(k, ())
            continue
        got = raised(lambda: bucket_partition(f, v, params, k))
        want = raised(lambda: reference_bucket_partition(f, v, params, k))
        assert got[0] is want[0] is error, (str(f), params, got, want)
        if error is not TypeError:  # the TypeError's text is the one that changed
            assert got == want
    missing = raised(lambda: bucket_partition(family, X, [bound, unbound], 5))
    assert missing == (NotGroundError, "x2 is not bound by the assignment")


def test_bucket_partition_eliminates_the_family_once(monkeypatch):
    # qe runs once for all 20 tuples and nothing is grounded; decompose
    # still grounds and eliminates its one formula
    counts = {"qe": 0, "ground": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name.startswith("densepairs"):
            for attr in ("qe", "ground"):
                fn = getattr(module, attr, None)
                if callable(fn):
                    monkeypatch.setattr(module, attr, counting(attr, fn))
    family = parse("x2 < x1 & x1 < x3 & pi(x1) != u1")
    rng = random.Random(77)
    params = [
        {
            hvar(2): random_element(rng, MODEL, 1),
            hvar(3): random_element(rng, MODEL, 1),
            qvar(1): random_quotient_element(rng, MODEL, 1),
        }
        for _ in range(20)
    ]
    report = bucket_partition(family, X, params, 10)
    assert len(report.entries) == 20
    assert counts == {"qe": 1, "ground": 0}
    counts.update(qe=0, ground=0)
    decompose(family, X, params[0])
    assert counts == {"qe": 1, "ground": 1}


def test_bucket_partition_scans_the_family_as_often_for_one_tuple_as_for_twenty(monkeypatch):
    # one scan for the parameters and one as qe admits the window
    family = parse(QUANTIFIED_FAMILY)
    params = [{hvar(2): parse_element(f"{i}/20"), hvar(3): parse_element("1/2")} for i in range(20)]
    calls = []
    scan = formulas._scan
    monkeypatch.setattr(formulas, "_scan", lambda f: calls.append(f) or scan(f))
    bucket_partition(family, X, params[:1], 10)
    assert len(calls) == 2
    calls.clear()
    bucket_partition(family, X, params, 10)
    assert len(calls) == 2


def test_bucket_partition_evaluates_each_ground_root_once(monkeypatch):
    # the window's bounds 0 and 1 are evaluated as the table is built, and
    # each tuple evaluates only its own roots x2 and x3
    family = parse("x2 < x1 & x1 < x3")
    params = [
        {hvar(2): ModelElement.from_rational(Fraction(i, 16)), hvar(3): ModelElement.from_rational(Fraction(i + 6, 16))}
        for i in range(20)
    ]
    calls = []
    evaluate = HomeTerm.evaluate
    monkeypatch.setattr(HomeTerm, "evaluate", lambda self, assignment: calls.append(self) or evaluate(self, assignment))
    report = bucket_partition(family, X, params, 10)
    assert len(calls) == 2 + 2 * 20
    assert [e.bucket for e in report.entries][:6] == [4, 4, 4, 4, 4, 4]
    for i, entry in enumerate(report.entries):
        length = max(Fraction(0), min(Fraction(i + 6, 16), Fraction(1)) - Fraction(i, 16))
        assert entry.value == ModelElement.from_rational(length)


def union_in_the_window(intervals):
    """The length of the union of open intervals inside (0, 1), by Fraction
    arithmetic alone: clip each interval, then merge them in order."""
    clipped = sorted((max(a, Fraction(0)), min(b, Fraction(1))) for a, b in intervals)
    total, reach = Fraction(0), Fraction(0)
    for a, b in clipped:
        if b > max(a, reach):
            total += b - max(a, reach)
            reach = b
    return total


def test_two_interval_family_agrees_with_fraction_arithmetic():
    # endpoints on a grid of eighths from -1/2 to 3/2, so that they tie, and
    # intervals that overlap, abut, are empty or lie outside the window;
    # overlapping and abutting intervals make runs of adjacent holding cells
    rng = random.Random(4545)
    family = parse("x2 < x1 & x1 < x3 | x4 < x1 & x1 < x5")
    names = [hvar(2), hvar(3), hvar(4), hvar(5)]
    shapes = {"overlap": 0, "abut": 0, "tie": 0, "outside": 0}
    for k in (1, 3, 8, 10, 100):
        cases = []
        for _ in range(400):
            bounds = [Fraction(rng.randint(-4, 12), 8) for _ in names]
            if rng.random() < 0.2:  # the second interval starts where the first ends
                bounds[2] = bounds[1]
            (a, b), (c, e) = sorted([bounds[:2], bounds[2:]])
            shapes["overlap"] += a < b and c < e and c < b and c > a
            shapes["abut"] += a < b < e and b == c
            shapes["tie"] += len(set(bounds)) < 4
            shapes["outside"] += min(bounds) < 0 < max(bounds) and max(bounds) > 1
            cases.append((bounds, union_in_the_window([bounds[:2], bounds[2:]])))
        params = [{v: ModelElement.from_rational(q) for v, q in zip(names, bounds)} for bounds, _ in cases]
        report = bucket_partition(family, X, params, k)
        for (bounds, length), assignment, entry in zip(cases, params, report.entries, strict=True):
            want = ModelElement.from_rational(length)
            assert entry.value == want, bounds
            assert entry.bucket == max(1, -(-length * k // 1)), (bounds, k)  # ceil, ties going down
            assert measure(family, X, assignment).value == want, bounds
    assert min(shapes.values()) > 50, shapes


def test_every_entry_point_refuses_a_python_number_for_a_home_value():
    # grounding checks a parameter's sort as bucket_partition and
    # eval_formula do, the first parameter in sort order first
    one = {hvar(2): 1}
    message = "x2 is assigned a int, not a ModelElement"
    calls = [
        lambda: measure(parse("x1 < x2"), X, one),
        lambda: decompose(parse("x1 < x2"), X, one),
        lambda: code_unary_set(parse("x1 < x2"), X, one),
        lambda: code_function(parse("x3 = x1 + x2"), X, hvar(3), one),
        lambda: bucket_partition(parse("x1 < x2"), X, [one], 10),
        lambda: eval_formula(parse("x1 < x2"), {X: ModelElement(), **one}),
    ]
    for call in calls:
        assert raised(call) == (TypeError, message)
    quarter = {hvar(2): Fraction(1, 4), qvar(1): ModelElement()}
    assert raised(lambda: measure(parse("x1 < x2 & pi(x1) = u1"), X, quarter)) == (
        TypeError,
        "x2 is assigned a Fraction, not a ModelElement",
    )
    unbound = {hvar(3): 1}
    assert raised(lambda: decompose(parse("x1 < x2 + x3"), X, unbound)) == (
        NotGroundError,
        "x2 is not bound by the assignment",
    )
