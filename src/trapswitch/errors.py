"""Exception types shared across the package."""


class TrapSwitchError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(TrapSwitchError, ValueError):
    """An argument violates a documented precondition."""


class RefinementError(TrapSwitchError):
    """Adaptive refinement hit its depth limit on the named interval."""

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class IncompleteSearchError(TrapSwitchError):
    """A root search found fewer (or more) zeros than the winding count."""

    def __init__(self, message, found=None, expected=None):
        super().__init__(message)
        self.found = found
        self.expected = expected


class NoBoundStateError(TrapSwitchError):
    """The potential supports no bound state."""


class AmbiguousBoundStateError(TrapSwitchError):
    """More than one bound state where a unique one was required."""

    def __init__(self, message, energies=()):
        super().__init__(message)
        self.energies = tuple(energies)


class NumericalBlowupError(TrapSwitchError):
    """Propagation produced a non-finite value."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ContainmentError(TrapSwitchError):
    """Wave function amplitude at the box edge is too large to project."""


class CompletenessViolationError(TrapSwitchError):
    """Continuum projection would miss weight (bound state present)."""


class FitFailureError(TrapSwitchError):
    """Nonlinear fit did not converge; carries the last iterate."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class WindowError(TrapSwitchError):
    """Fit window does not enclose the feature (peak at window edge)."""


class InsufficientDataError(TrapSwitchError):
    """Too few samples for the requested analysis."""


class SpecValidationError(TrapSwitchError):
    """Experiment spec failed validation; message lists the problems."""

    def __init__(self, message, problems=()):
        super().__init__(message)
        self.problems = tuple(problems)
