"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: configuration problems
exit 2, runtime failures (stiffness, I/O) exit 3, check failures exit 1.
"""


class PlsfError(Exception):
    """Base class for package errors."""


class GridMismatchError(PlsfError):
    """Two fields that must share a grid do not."""


class FieldInvariantError(PlsfError):
    """A spectral field violates a representation invariant."""


class CapacityError(PlsfError):
    """More basis modes requested than the grid admits."""

    def __init__(self, requested: int, maximum: int):
        self.requested = requested
        self.maximum = maximum
        super().__init__(
            f"requested {requested} basis modes but the grid only admits {maximum}"
        )


class StiffnessError(PlsfError):
    """Adaptive step size underflowed dt_min, or the step size or error norm
    is not finite; carries diagnostic state."""

    def __init__(self, t: float, dt: float, err_norm: float):
        self.t = t
        self.dt = dt
        self.err_norm = err_norm
        super().__init__(
            f"step size underflow at t={t!r}: dt={dt!r} below dt_min "
            f"(error norm {err_norm!r}); the system looks too stiff for the "
            f"explicit integrator at this tolerance"
        )


class ConfigError(PlsfError):
    """Invalid run configuration; collects every violation, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InsufficientFamilyError(PlsfError):
    """A diagnostic needing several resolutions received too few records."""
