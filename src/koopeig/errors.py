"""Exception types shared across the package."""

# Why a point is outside an eigenfunction's domain: no crossing of the data
# manifold in the window, more than one, or an orbit that blew up or stalled
# before any. Each error that ends a search carries its reason.
MISS_REASONS = ("no_crossing", "ambiguous", "blow_up", "step_underflow")
NO_CROSSING, AMBIGUOUS, BLOW_UP, STEP_UNDERFLOW = MISS_REASONS


class KoopeigError(Exception):
    """Base class for all library errors."""


class BlowUpError(KoopeigError):
    """Trajectory norm exceeded the blow-up bound before the requested time."""

    reason = BLOW_UP

    def __init__(self, message, time=None, state=None):
        super().__init__(message)
        self.time = time
        self.state = state


class StepUnderflowError(KoopeigError):
    """Adaptive step size fell below the hard floor."""

    reason = STEP_UNDERFLOW


class NotInDomainError(KoopeigError):
    """Query point is outside the swept domain of an eigenfunction.

    ``reason`` says why the orbit missed the data manifold: NO_CROSSING,
    BLOW_UP or STEP_UNDERFLOW.
    """

    def __init__(self, message, reason=NO_CROSSING):
        super().__init__(message)
        self.reason = reason


class AmbiguousCrossingError(KoopeigError):
    """Backward/forward orbit met the data manifold more than once in-window."""

    reason = AMBIGUOUS


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
