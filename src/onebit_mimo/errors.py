"""Exception types shared across the package."""


class ConfigurationError(Exception):
    """Invalid or inconsistent simulation / code parameters."""


class CodeConstructionError(Exception):
    """LDPC graph or generator construction failed after retries."""
