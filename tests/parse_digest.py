"""The parse outcomes of a fixed, seeded corpus of texts, as one sha256.

The texts are rendered random formulas of each theory mode, quantifier-free
and quantified, and copies of them with one character inserted, deleted or
swapped with its neighbour, so most of the copies are malformed, ill-sorted
or outside the mode.  Each text is parsed in all three modes, and each
outcome is the rendered formula or the exception's class and message.

Run ``PYTHONPATH=src python tests/parse_digest.py`` to print the digest.
"""

import hashlib
import random

from densepairs.formulas import TheoryMode
from densepairs.model import Model
from densepairs.parser import parse, render
from densepairs.randgen import random_qf_formula, random_quantified_formula
from densepairs.terms import hvar, qvar

MODEL = Model(3)
# what an inserted character is drawn from: the grammar's symbols and some it lacks
INSERTS = "()!&|<>=+-*/. 0123456789xurpiEAQ#y"


def corpus(seed: int = 2027, formulas: int = 700, mutants: int = 9):
    """Yield the texts: per mode, `formulas` rendered formulas each followed by
    `mutants` one-character mutants of it."""
    rng = random.Random(seed)
    variables = [hvar(1), hvar(2), qvar(1), qvar(2)]
    for mode in TheoryMode:
        for i in range(formulas):
            if i % 2:
                f = random_quantified_formula(rng, MODEL, mode, quantifiers=rng.randint(1, 3))
            else:
                f = random_qf_formula(rng, variables, MODEL, mode, depth=rng.randint(1, 3))
            text = render(f)
            yield text
            for _ in range(mutants):
                at = rng.randrange(len(text) + 1)
                how = rng.randrange(3)
                if how == 0:
                    yield text[:at] + rng.choice(INSERTS) + text[at:]
                elif how == 1 or at >= len(text) - 1:
                    yield text[:at] + text[at + 1:]
                else:
                    yield text[:at] + text[at + 1] + text[at] + text[at + 2:]


def outcome(text: str, mode: TheoryMode) -> str:
    try:
        return render(parse(text, mode))
    except Exception as error:  # the class and message are the contract
        return f"{type(error).__name__}: {error}"


def digest() -> tuple[int, str]:
    """(the number of texts, the sha256 of their outcomes in every mode)."""
    h = hashlib.sha256()
    count = 0
    for text in corpus():
        count += 1
        for mode in TheoryMode:
            h.update(f"{text}\t{mode.value}\t{outcome(text, mode)}\n".encode())
    return count, h.hexdigest()


if __name__ == "__main__":
    print(*digest())
