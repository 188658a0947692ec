"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration, operation arguments, or input files."""


class DisconnectedGraphError(ConfigError):
    """An explicit edge list does not describe a connected graph."""


class EigensolverError(RuntimeError):
    """A dense eigensolve failed, or its certificate did not hold."""
