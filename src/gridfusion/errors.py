"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid run or batch configuration (bad grid size, level, features, ...)."""


class CompositeSizeError(ConfigError):
    """Composite chain would exceed the configured state-count cap."""


class EngineInvariantError(RuntimeError):
    """A simulation run violated an internal invariant; carries seed/step context."""
