"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the model's admissible interval or region."""


class ModelValidationError(ValueError):
    """A model violates one of its structural assumptions.

    Carries the list of violated assumptions in ``violations``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("model validation failed: " + "; ".join(self.violations))


class UnsupportedModelError(TypeError):
    """The requested operation is not defined for this model family."""


class SolverError(RuntimeError):
    """An optimization routine failed to converge."""


class ResourceGuardError(RuntimeError):
    """A call would pass a budget of policies.admit: bytes of arrays or kernel steps."""


class KernelUnavailableError(RuntimeError):
    """The compiled kernel library cannot be built or loaded; a working cc is required."""


class ConfigError(ValueError):
    """An experiment configuration is malformed."""


class DegeneracyWarning(UserWarning):
    """An active inventory constraint carries a (near-)zero dual value.

    Signals boundary inventory: the active-set partition is not stable
    under small perturbations, so constant-regret guarantees may not apply.
    """
