"""Decision procedures for dense pairs of ordered rational vector spaces.

The package provides, over the two-sorted language of an ordered
rational vector space with a predicate for a dense proper subspace and
a quotient sort:

- an exact computable reference model (rational spans of square roots
  of primes) with evaluation and witness-search oracles,
- quantifier elimination and sentence decision, including the ordered
  expansion of the quotient sort,
- canonical decomposition of unary definable sets into points (the
  near-frontier) and coset-pattern pieces (the near-interior), with
  smallness and generic-type classification,
- exact evaluation of the canonical finitely additive measure,
- canonical codes for unary definable sets (their decompositions) and
  piecewise-linear definable functions.
"""

from .decomposition import (
    CosetSet,
    Decomposition,
    Endpoint,
    NearInterval,
    decompose,
    generic_type_contains,
    is_small,
)
from .coding import (
    FunctionCode,
    FunctionPiece,
    UnarySetCode,
    code_function,
    code_unary_set,
    codes_equal,
)
from .evaluate import Assignment, eval_formula
from .formulas import (
    Atom,
    AtomKind,
    Formula,
    TheoryMode,
    free_variables,
    make_and,
    make_not,
    make_or,
    simplify,
    substitute,
    to_dnf,
)
from .measure import BucketReport, MeasureValue, bucket_partition, measure
from .model import (
    Model,
    ModelElement,
    QuotientElement,
    compare,
    lex_compare,
    project,
    section,
)
from .oracles import oracle_exists_home, oracle_exists_quotient
from .parser import parse, parse_element, parse_quotient_element, render
from .qe import (
    AtomSplit,
    decide_sentence,
    eliminate_exists_home,
    eliminate_exists_quotient,
    qe,
    split_atom,
)
from .terms import HomeTerm, QuotientTerm, Sort, Variable, hvar, qvar

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Atom",
    "AtomKind",
    "AtomSplit",
    "BucketReport",
    "CosetSet",
    "Decomposition",
    "Endpoint",
    "Formula",
    "FunctionCode",
    "FunctionPiece",
    "HomeTerm",
    "MeasureValue",
    "Model",
    "ModelElement",
    "NearInterval",
    "QuotientElement",
    "QuotientTerm",
    "Sort",
    "TheoryMode",
    "UnarySetCode",
    "Variable",
    "bucket_partition",
    "code_function",
    "code_unary_set",
    "codes_equal",
    "compare",
    "decide_sentence",
    "decompose",
    "eliminate_exists_home",
    "eliminate_exists_quotient",
    "eval_formula",
    "free_variables",
    "generic_type_contains",
    "hvar",
    "is_small",
    "lex_compare",
    "make_and",
    "make_not",
    "make_or",
    "measure",
    "oracle_exists_home",
    "oracle_exists_quotient",
    "parse",
    "parse_element",
    "parse_quotient_element",
    "project",
    "qe",
    "qvar",
    "render",
    "section",
    "simplify",
    "split_atom",
    "substitute",
    "to_dnf",
]
