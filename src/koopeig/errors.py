"""Exception types shared across the package."""

# Why a point is outside an eigenfunction's domain: no crossing of the data manifold
# in the window, more than one, or an orbit that blew up or stalled before any
# crossing of the data manifold. A batch call's ``why`` column holds one of these at
# each miss, and a miss that is raised is the NotInDomainError whose ``reason`` it is.
MISS_REASONS = ("no_crossing", "ambiguous", "blow_up", "step_underflow")
NO_CROSSING, AMBIGUOUS, BLOW_UP, STEP_UNDERFLOW = MISS_REASONS


class KoopeigError(Exception):
    """Base class for all library errors."""


class NotInDomainError(KoopeigError):
    """Query point is outside the swept domain of an eigenfunction: ``reason``
    is NO_CROSSING. Each subclass fixes its own reason."""

    reason = NO_CROSSING


class AmbiguousCrossingError(NotInDomainError):
    """Orbit met the data manifold more than once in the time window: AMBIGUOUS."""

    reason = AMBIGUOUS


class BlowUpError(NotInDomainError):
    """Trajectory norm exceeded the blow-up bound at ``time``: BLOW_UP."""

    reason = BLOW_UP

    def __init__(self, message, time=None, state=None):
        super().__init__(message)
        self.time = time
        self.state = state


class StepUnderflowError(NotInDomainError):
    """Adaptive step size fell below the hard floor: STEP_UNDERFLOW."""

    reason = STEP_UNDERFLOW


class OutOfRangeError(KoopeigError):
    """Parameter value outside the data-function grid."""


class GridMismatchError(KoopeigError):
    """Two tabulated functions do not share the same sample grid."""


class ZeroFieldError(KoopeigError):
    """Vector field vanishes on the data manifold (fixed point on it)."""


class BranchCutError(KoopeigError):
    """Non-integer power of a value off the positive real axis."""


class EmptyTargetError(KoopeigError):
    """Target sample has zero norm; nothing to decompose."""


class ConfigError(KoopeigError):
    """Bad run configuration; carries a dotted field path when known."""

    def __init__(self, message, field=None):
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field
