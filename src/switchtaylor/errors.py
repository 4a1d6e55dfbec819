"""Exception types raised by the switchtaylor package."""


class SwitchTaylorError(Exception):
    """Base class for all errors raised by this package."""
    pass


# ---------------------------------------------------------------------------
# multi-index calculus

class InvalidComponent(SwitchTaylorError):
    """A word component is outside the alphabet it is validated against."""
    pass


class ConsecutiveJumpComponents(SwitchTaylorError):
    """Two jump-count components appear next to each other in a word."""
    pass


class EmptyIndex(SwitchTaylorError):
    """The empty word was passed where a nonempty word is required."""
    pass


class InvalidGamma(SwitchTaylorError):
    """Scheme order is not a supported positive half-integer."""
    pass


# ---------------------------------------------------------------------------
# Markov chain

class InvalidGenerator(SwitchTaylorError):
    """Matrix is not a valid CTMC generator."""
    pass


class StateOutOfRange(SwitchTaylorError):
    """Chain state outside 1..m0."""
    pass


class SameStatePair(SwitchTaylorError):
    """Jump-count statistics require two distinct states."""
    pass


class IntervalOutOfRange(SwitchTaylorError):
    """Query interval is not inside the sampled path's time span."""
    pass


# ---------------------------------------------------------------------------
# driving noise

class InvalidGrid(SwitchTaylorError):
    """Grid description is inconsistent."""
    pass


class NotAGridTime(SwitchTaylorError):
    """A query time is not a grid point of the sampled noise path."""
    pass


class TruncatedNoiseFile(SwitchTaylorError):
    """A noise file ends before the sizes its header declares."""
    pass


# ---------------------------------------------------------------------------
# models and operators

class UnknownRegime(SwitchTaylorError):
    """Regime label outside 1..m0."""
    pass


class NonFiniteInput(SwitchTaylorError):
    """State vector contains NaN or infinity."""
    pass


class UnsupportedWordLength(SwitchTaylorError):
    """Operator word outside the supported catalogue."""
    pass


class UnknownFixture(SwitchTaylorError):
    """No built-in model registered under the requested name."""
    pass


# ---------------------------------------------------------------------------
# schemes

class UnknownScheme(SwitchTaylorError):
    """No scheme registered under the requested name."""
    pass


class CommutativityRequired(SwitchTaylorError):
    """Closed-form scheme applied to a model whose noise columns do not commute."""
    pass


class NonFiniteState(SwitchTaylorError):
    """Integration produced NaN or infinity."""
    pass


# ---------------------------------------------------------------------------
# convergence studies

class ReferenceNotFiner(SwitchTaylorError):
    """Reference resolution does not dominate the coarse levels."""
    pass


class StepTooLargeForChain(SwitchTaylorError):
    """Step size exceeds the stability bound 1/(2 qmax) of the chain."""
    pass


class InsufficientLevels(SwitchTaylorError):
    """Too few resolution levels to fit a convergence order."""
    pass


class NonPositiveError(SwitchTaylorError):
    """A mean-square error estimate is zero or negative; no slope to fit."""
    pass


class CouplingMismatch(SwitchTaylorError):
    """A coarse window's increment differs from the reference increments it spans."""
    pass


# ---------------------------------------------------------------------------
# configuration / CLI

class ConfigError(SwitchTaylorError):
    """Run configuration file or command line argument is invalid."""
    pass
