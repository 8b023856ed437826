"""The point-sampling sweep over decompositions, kept as a test reference.

`sweep` decomposes any test built from the memberships of some
decompositions: their points, finite piece ends and listed cosets are the
landmarks, between which each of them sees a point only through the named
coset holding it.  The test is asked at sample points, one per named coset
and one outside them all in each cell, and at each landmark.  The library
reads set algebra and function codes off the decompositions themselves;
the tests use this sweep to check them.
"""

from itertools import count
from typing import Callable, Iterable

from densepairs.decomposition import Decomposition, Endpoint, _sweep
from densepairs.model import (
    ModelElement,
    QuotientElement,
    rational_above,
    rational_below,
    rational_between,
    section,
)


def sweep(
    holds: Callable[[ModelElement], bool], decompositions: Iterable[Decomposition]
) -> Decomposition:
    """The canonical decomposition of the points where holds is true, for a
    test that sees a point only through which of the decompositions hold it:
    their points and finite piece ends are the endpoints, and their listed
    cosets the named cosets.  It is asked at each endpoint and, in each
    cell, at one sample per named coset and one outside them all."""
    endpoints: set[ModelElement] = set()
    named: set[QuotientElement] = set()
    for d in decompositions:
        endpoints.update(d.points)
        for p in d.pieces:
            endpoints.update(e.value for e in (p.lo, p.hi) if e.is_finite())
            named.update(p.cosets.members)
    ends = sorted(endpoints)
    bounds = [Endpoint.neg_inf(), *map(Endpoint.at, ends), Endpoint.pos_inf()]
    # the first coset of r2, 2*r2, 3*r2, ... that is not named
    outside = next(w for k in count(1) if (w := QuotientElement({2: k})) not in named)

    def at(i: int, w: QuotientElement | None) -> bool:
        j, w = i // 2, outside if w is None else w
        return holds(ends[j] if i % 2 else _sample_inside(bounds[j], bounds[j + 1], w))

    return _sweep(at, ends, named)


def _sample_inside(lo: Endpoint, hi: Endpoint, w: QuotientElement) -> ModelElement:
    """A point of the coset w strictly between lo and hi: section(w) + q, q rational."""
    s = section(w)
    if lo.is_finite() and hi.is_finite():
        q = rational_between(lo.value - s, hi.value - s)
    elif lo.is_finite():
        q = rational_above(lo.value - s)
    elif hi.is_finite():
        q = rational_below(hi.value - s)
    else:
        q = 0
    return s + ModelElement.from_rational(q)
