"""The nested census: seeded quantified formulas whose bodies do not collapse.

Unlike `randgen.random_quantified_formula`, whose body is a bare literal
with odds 0.4 at every level, every body here is a full tree of depth 3,
so three or four quantifiers leave answers that are neither `true` nor
`false` and steps whose DNF products are large.  One `random.Random` runs
through the whole sample, so formula i depends on every formula before
it.  `ovs` has no quotient sort, and draws no random number for a
variable's sort.
"""

import random
import signal
from contextlib import contextmanager

from densepairs.formulas import Exists, Forall, TheoryMode, make_and, make_or
from densepairs.model import Model
from densepairs.randgen import random_literal
from densepairs.terms import Sort, Variable

MODEL = Model(3)
DEPTH = 3


def _body(rng, variables, mode, depth):
    if depth == 0:
        return random_literal(rng, variables, MODEL, mode)
    children = [_body(rng, variables, mode, depth - 1) for _ in range(rng.randint(2, 3))]
    return make_and(children) if rng.random() < 0.5 else make_or(children)


def census_formula(rng, mode, q):
    """One formula: q bound variables x50, x51, ... (each quotient-sort, as u5i,
    with odds 0.4 outside `ovs`) over the context x90, and u90 outside `ovs`."""
    bound = [
        Variable(Sort.HOME if mode is TheoryMode.OVS or rng.random() < 0.6 else Sort.QUOTIENT, 50 + i)
        for i in range(q)
    ]
    context = [Variable(Sort.HOME, 90)] + ([] if mode is TheoryMode.OVS else [Variable(Sort.QUOTIENT, 90)])
    f = _body(rng, bound + context, mode, DEPTH)
    for v in reversed(bound):
        f = Exists(v, f) if rng.random() < 0.5 else Forall(v, f)
    return f


def census(mode, q, count, seed=99):
    """The first count formulas of the census of mode with q quantifiers."""
    rng = random.Random(seed)
    return [census_formula(rng, mode, q) for _ in range(count)]


@contextmanager
def time_cap(seconds):
    """Raise TimeoutError in the block once it runs past seconds (SIGALRM), so
    that an input which stalls again fails its test instead of hanging it."""

    def stop(*_):
        raise TimeoutError(f"ran past the {seconds} s cap")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
