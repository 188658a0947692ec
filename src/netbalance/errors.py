"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration, operation arguments, or input files."""


class DisconnectedGraphError(ConfigError):
    """An explicit edge list does not describe a connected graph."""


class EigensolverError(RuntimeError):
    """Eigen decomposition failed to meet the requested accuracy.

    Carries the worst observed residual norm when it is known.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
