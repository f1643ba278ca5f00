"""Exception types shared across the package."""


class HypermorseError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDocumentError(HypermorseError):
    """An input document violates the JSON schema or its invariants."""


class NotMorseError(HypermorseError):
    """An operation required a discrete Morse function but the input is not one."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(
            "function is not a discrete Morse function (%d violating hyperedges)"
            % len(self.violations)
        )


class MorphismError(HypermorseError):
    """A vertex map fails to be a hypergraph morphism."""

    def __init__(self, message, offending_edge=None):
        self.offending_edge = offending_edge
        super().__init__(message)


class SizeCapExceeded(HypermorseError):
    """An instance was refused up front because it exceeds a size cap: the
    unknown cells of an exhaustive Morse extension search, or the cells of a
    closure that one hyperedge alone would push past
    hypercore.MAX_CLOSURE_CELLS."""


class MalformedSubcomplexError(HypermorseError):
    """A claimed sub-chain complex is not closed under the boundary map."""


class InternalConsistencyError(HypermorseError):
    """Two independent computations of the same object disagree (a bug)."""
