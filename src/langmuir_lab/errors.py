"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the admissible region (y <= 0, origin, bad energy/height)."""


class StepUnderflow(RuntimeError):
    """Adaptive integration needed a step below H_MIN (near-singularity).

    Carries the last valid time and state so callers can diagnose where the
    integration died.
    """

    def __init__(self, t, state):
        super().__init__(f"step size underflow at t={t}")
        self.t = t
        self.state = state


class NoRest(RuntimeError):
    """Trajectory hit a collision cutoff or the time limit before the
    requested number of x-velocity zeros occurred."""

    def __init__(self, k, termination):
        super().__init__(
            f"fewer than {k} x-velocity zeros before termination ({termination})"
        )
        self.k = k
        self.termination = termination


class BadBracket(ValueError):
    """Shooting residual has the same sign at both bracket endpoints."""


class NoConvergence(RuntimeError):
    """Root finding did not reach the residual tolerance within the
    iteration budget."""


class ClosureFailure(RuntimeError):
    """Symmetry-assembled periodic orbit fails to retrace its quarter arc
    within tolerance."""
