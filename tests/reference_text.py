"""The tree-walk literal renderer, kept as a test reference.

A literal's text was the text of its atom's two halves: the payload split
into its positive part and its negated negative part, each a term of its
own, canonical, and written by the term's `str`, each coefficient in
lowest terms.  The library writes the same text straight from the payload
row (`formulas.literal_text`); the tests check the two agree.
"""

from math import gcd

from densepairs.formulas import Atom, AtomKind, Not
from densepairs.terms import HomeTerm, Sort


def render_combination(items):
    """Render (n, d, symbol or None for 1) triples, each a nonzero coefficient
    n/d in lowest terms with d > 0, like ``3/2 + 1/3*r2 - r5``."""
    parts = []
    for n, d, sym in items:
        mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
        body = mag if sym is None else sym if mag == "1" else f"{mag}*{sym}"
        parts.append(("-" if n < 0 else "+", body))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return out + "".join(f" {s} {b}" for s, b in parts[1:])


def halves(t):
    """The positive and the negated negative part of a term: t == pos - neg."""
    v, n = ({k: m for k, m in p.items() if m > 0} for p in (t._v, t._n))
    pos = t._reduced(t._d, v, n)
    return pos, pos - t


def _items(d, v, n):
    parts = [(v[x], f"{'x' if x.sort is Sort.HOME else 'u'}{x.index}") for x in sorted(v, key=lambda x: x.index)]
    parts += [(n[k], f"r{k}" if k else None) for k in sorted(n)]
    return [(m // g, d // g, symbol) for m, symbol in parts for g in [gcd(m, d)]]


def term_text(t) -> str:
    d, v = t._d, t._v
    if type(t) is HomeTerm:
        return render_combination(_items(d, v, t._n))
    items = _items(d, {x: a for x, a in v.items() if x.sort is Sort.QUOTIENT}, {})
    inner = HomeTerm._reduced(d, {x: a for x, a in v.items() if x.sort is Sort.HOME}, t._n)
    if not inner.is_zero():
        items.append((1, 1, f"pi({term_text(inner)})"))
    return render_combination(items)


def _atom_text(atom: Atom, positive: bool = True) -> str:
    if atom.kind is AtomKind.IN_Q:
        return f"{'' if positive else '!'}Q({term_text(atom.payload)})"
    if atom.kind is AtomKind.QUOT_EQ and atom.payload.is_zero():
        pos, neg = "pi(0)", "0"
    else:
        pos, neg = map(term_text, halves(atom.payload))
    rel = {AtomKind.HOME_LT: "<", AtomKind.QUOT_PREC: "prec"}.get(atom.kind) or ("=" if positive else "!=")
    return f"{pos} {rel} {neg}"


def reference_literal_text(lit) -> str:
    """The text `render` gave a literal: an atom, or a negated atom as
    ``!(...)`` unless it is a quotient equation or membership atom."""
    if isinstance(lit, Atom):
        return _atom_text(lit)
    assert isinstance(lit, Not) and isinstance(lit.sub, Atom), lit
    if lit.sub.kind in (AtomKind.QUOT_EQ, AtomKind.IN_Q):
        return _atom_text(lit.sub, positive=False)
    return f"!({_atom_text(lit.sub)})"

