"""Exception types shared across the package."""


class FastexitError(Exception):
    """Base class for package-specific failures."""


class DivergenceError(FastexitError):
    """A simulated path produced a non-finite or absurdly large coefficient."""

    def __init__(self, step, t, message=None):
        self.step = step
        self.t = t
        super().__init__(message or f"path diverged at step {step} (t={t:.6g})")


class NondegeneracyError(FastexitError):
    """The noise intensity H vanished (or went negative) along a path."""


class OptimizationError(FastexitError):
    """A path optimization did not converge; carries the best value attained."""

    def __init__(self, message, best_value):
        self.best_value = best_value
        super().__init__(f"{message} (best value attained: {best_value:.6g})")


class ConfigError(FastexitError):
    """Experiment configuration failed validation; names the offending field."""

    def __init__(self, field_path, message):
        self.field_path = field_path
        super().__init__(f"config field '{field_path}': {message}")
