"""Exception hierarchy shared by every layer of the engine.

The three base classes mirror the CLI exit-code contract: syntax-level
problems (bad input text, ill-sorted or mode-illegal formulas) exit 2,
violated operation preconditions exit 3, and breached internal
invariants exit 4.
"""


class EngineError(Exception):
    """Base class for everything raised deliberately by this package."""


class InputError(EngineError):
    """The input text or formula is malformed for the requested theory."""


class ParseError(InputError):
    def __init__(self, position: int, message: str):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position
        self.message = message


class SortError(InputError):
    """Home/quotient sort mismatch."""


class ModeError(InputError):
    """A symbol was used outside the theory mode that provides it."""


class PreconditionError(EngineError):
    """An operation was called outside its stated precondition."""


class QuantifiedInputError(PreconditionError):
    """A quantifier-free formula was required."""


class CaptureError(PreconditionError):
    """A substitution would capture a bound variable."""


class UnboundVariableError(PreconditionError):
    """Evaluation met a free variable missing from the assignment."""


class NotGroundError(PreconditionError):
    """A variable other than the designated one is not grounded."""


class NotConjunctionError(PreconditionError):
    """A list of literals was required (atoms or negated atoms)."""


class FreeVariableError(PreconditionError):
    """A sentence (no free variables) was required."""


class ArityError(PreconditionError):
    """Wrong number of free variables for a unary/binary operation."""


class NotFunctionalError(PreconditionError):
    """The given relation is not the graph of a partial function."""


class InternalError(EngineError):
    """An internal invariant failed; always a bug, never user error."""
