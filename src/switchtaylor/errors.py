"""Exception types raised by the switchtaylor package."""


class SwitchTaylorError(Exception):
    """Base class for all errors raised by this package."""
    pass


class ValidationError(SwitchTaylorError):
    """The input was wrong, as opposed to a run failing on valid input.

    The command line exits with status 1 for these and 2 for other errors.
    """
    pass


# ---------------------------------------------------------------------------
# multi-index calculus

class InvalidComponent(ValidationError):
    """A word component is outside the alphabet it is validated against."""
    pass


class ConsecutiveJumpComponents(ValidationError):
    """Two jump-count components appear next to each other in a word."""
    pass


class EmptyIndex(ValidationError):
    """The empty word was passed where a nonempty word is required."""
    pass


class InvalidGamma(ValidationError):
    """Scheme order is not a supported positive half-integer."""
    pass


# ---------------------------------------------------------------------------
# Markov chain

class InvalidGenerator(ValidationError):
    """Matrix is not a valid CTMC generator."""
    pass


class StateOutOfRange(ValidationError):
    """Chain state outside 1..m0."""
    pass


class IntervalOutOfRange(ValidationError):
    """Query interval is not inside the sampled path's time span."""
    pass


# ---------------------------------------------------------------------------
# driving noise

class InvalidGrid(ValidationError):
    """Grid description is inconsistent."""
    pass


class NotAGridTime(ValidationError):
    """A query time is not a grid point of the sampled noise path."""
    pass


# ---------------------------------------------------------------------------
# models and operators

class UnknownRegime(ValidationError):
    """Regime label outside 1..m0."""
    pass


class NonFiniteInput(ValidationError):
    """A state vector, probe point or noise increment holds NaN or infinity."""
    pass


class InvalidCoefficients(ValidationError):
    """A model's coefficients are not a CoefficientSet, a study's model is
    not a ModelSpec, or a coefficient set's tables, d, m or values are bad."""
    pass


class DimensionMismatch(ValidationError):
    """An array or index does not fit the model's dimensions."""
    pass


class InvalidJetOrder(ValidationError):
    """A coefficient jet was asked for an order other than 0, 1 or 2."""
    pass


class UnknownFixture(ValidationError):
    """No built-in model registered under the requested name."""
    pass


# ---------------------------------------------------------------------------
# schemes

class UnknownScheme(ValidationError):
    """No scheme registered under the requested name."""
    pass


class CommutativityRequired(ValidationError):
    """Closed-form scheme applied to a model whose noise columns do not commute."""
    pass


class NonFiniteState(SwitchTaylorError):
    """Integration produced NaN or infinity.

    ``step`` and ``row`` locate the first bad state in a batch when known.
    """

    def __init__(self, message, step=None, row=None):
        super().__init__(message)
        self.step = step
        self.row = row


# ---------------------------------------------------------------------------
# convergence studies

class InvalidSeed(ValidationError):
    """Seed is not an integer in [0, 2**64)."""
    pass


class ReferenceNotFiner(ValidationError):
    """Reference resolution does not dominate the coarse levels."""
    pass


class StepTooLargeForChain(ValidationError):
    """Step size exceeds the stability bound 1/(2 qmax) of the chain."""
    pass


class InsufficientLevels(ValidationError):
    """Too few resolution levels to fit a convergence order."""
    pass


class NonPositiveError(SwitchTaylorError):
    """A mean-square error estimate is zero or negative; no slope to fit."""
    pass


class CouplingMismatch(SwitchTaylorError):
    """A coarse window's increment differs from the reference increments it spans."""
    pass


class WorkerLost(SwitchTaylorError):
    """A forked worker process of a study ended without a complete result."""
    pass


# ---------------------------------------------------------------------------
# configuration / CLI

class ConfigError(ValidationError):
    """Run configuration file or command line argument is invalid."""
    pass
