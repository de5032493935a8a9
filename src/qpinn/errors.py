"""Exception types shared across the package."""


class QpinnError(Exception):
    """Base class for all package errors."""


class DomainError(QpinnError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeError(QpinnError, ValueError):
    """A size cap (qubit width, tensor grid) was exceeded."""


class IndexCollisionError(QpinnError, ValueError):
    """Control and target qubit indices overlap."""


class LoweringError(QpinnError, ValueError):
    """A gate cannot be lowered to the requested native set."""


class BoundError(QpinnError, ValueError):
    """A polynomial violates its required sup-norm bound."""


class SynthesisError(QpinnError, RuntimeError):
    """Angle synthesis did not reach the target residual."""


class DegenerateControlError(QpinnError, ZeroDivisionError):
    """The optimal-control formula is undefined (v_xx = 0 or x = 0)."""


class AggregationError(QpinnError, ValueError):
    """Loss aggregation received non-positive values."""


class TrainingAbortError(QpinnError, RuntimeError):
    """Training produced a non-finite gradient or loss."""


class ConfigError(QpinnError, ValueError):
    """A run-configuration document failed schema validation."""


class BackwardError(QpinnError, RuntimeError):
    """``backward`` has no one-row forward to differentiate, or its
    cotangent does not fit the outputs of that forward."""
