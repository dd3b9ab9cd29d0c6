"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: input problems (parsing, validation of
input data, domain preconditions) exit 1, decomposition validation failures
exit 2, exhausted resource budgets exit 3.
"""


class RaagError(Exception):
    """Base class for all errors raised by this package."""


class GraphParseError(RaagError):
    """Input text could not be parsed as a graph (JSON or DOT subset)."""


class GraphValidationError(RaagError):
    """Parsed data violates graph invariants (duplicate vertex, self-loop,
    edge endpoint not declared)."""


class DomainError(RaagError):
    """An operation was called outside its contract (wrong ambient graph,
    disconnected input where connected is required, unknown generator, ...)."""


class BudgetExceededError(RaagError):
    """A configured resource cap was hit.

    `dimension` names the offending cap (e.g. "max_states"), `limit` is its
    value and `consumed` how much of it had been counted when the operation
    stopped, always more than `limit`. Both are None where the refusal
    reports no counts.
    """

    def __init__(self, message, dimension=None, consumed=None, limit=None):
        super().__init__(message)
        self.dimension = dimension
        self.consumed = consumed
        self.limit = limit


class InvariantViolationError(RaagError):
    """An internal assertion failed; this signals an implementation bug,
    not bad user input."""
