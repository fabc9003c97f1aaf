"""Exception types shared across the toolkit."""


class ModelError(Exception):
    """Base class for runtime model violations (as opposed to bad configs)."""


class CoverViolation(ModelError):
    """The observer set fails the cover condition where an operation relies on it.

    Carries the node id at which the violation surfaced, when known.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class DegenerateEvidence(ModelError):
    """An observation had numerically zero probability under the model.

    Signals inconsistent inputs (e.g. transmission or healing probabilities
    pinned to exactly 0/1 combined with an impossible observation), not a
    recoverable numerical condition.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class ZeroProbabilityEvidence(ModelError):
    """Conditioning a joint distribution on an impossible observation."""


class Infeasible(ModelError):
    """No parameter choice inside the box bounds satisfies the decay constraint.

    ``min_lhs`` reports the smallest achievable constraint left-hand side.
    """

    def __init__(self, message, min_lhs=None):
        super().__init__(message)
        self.min_lhs = min_lhs


class SolverFailure(ModelError):
    """The controller could not produce a decision it can certify.

    Raised when the certified constraint slack of a decision violates the
    tolerance, or when the Newton system fails to yield a descent step.
    """


class ConfigError(Exception):
    """Invalid configuration document or input file."""
