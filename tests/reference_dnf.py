"""Disjunctive normal form as it was computed before the polarity walk:
`nnf` builds the negation normal form tree, and a second walk distributes
it over interned literal ids.  `formulas.dnf_clauses` must give the same
clauses, in the same order."""

from densepairs.formulas import BoolConst, Or, is_literal, literal_text, make_not, nnf, traverse


def _absorb(clauses):
    kept = []
    for clause in sorted(clauses, key=len):
        if not any(other <= clause for other in kept):
            kept.append(clause)
    return kept


def reference_dnf_clauses(f):
    g = nnf(f)
    ids = {}
    literals = []
    negation = []  # id of the complementary literal, or -1

    def intern(lit):
        got = ids.get(lit)
        if got is None:
            got = len(literals)
            ids[lit] = got
            literals.append(lit)
            partner = ids.get(make_not(lit))
            negation.append(-1 if partner is None else partner)
            if partner is not None:
                negation[partner] = got
        return got

    def connective(h):
        if isinstance(h, Or):
            out = {}
            for c in h.children:
                out.update(dict.fromkeys((yield c)))
            return list(out)
        acc = [frozenset()]
        for c in h.children:
            branch = yield c
            merged = set()
            for a in acc:
                for b in branch:
                    u = a | b
                    if u in merged or any(negation[i] in u for i in b if negation[i] >= 0):
                        continue
                    merged.add(u)
            acc = _absorb(merged)
            if not acc:
                return []
        return acc

    def step(h):
        if isinstance(h, BoolConst):
            return [frozenset()] if h.value else []
        if is_literal(h):
            return [frozenset([intern(h)])]
        return connective(h)

    kept = _absorb(traverse(step, g))
    if len(literals) > 1:
        text = [literal_text(lit) for lit in literals]
        kept = sorted(
            (sorted(clause, key=text.__getitem__) for clause in kept),
            key=lambda clause: [text[i] for i in clause],
        )
    return [tuple(literals[i] for i in clause) for clause in kept]
