"""Exception types shared across the package."""


class TrendlabError(Exception):
    """Base class for all trendlab errors."""


class ConfigError(TrendlabError):
    """Invalid configuration value or run config file."""


class DataError(TrendlabError):
    """Malformed, inconsistent, or insufficient input data."""


class CheckpointError(DataError):
    """Unreadable, truncated, or version-incompatible checkpoint."""


class DivergenceError(TrendlabError):
    """Training produced a non-finite prediction, loss, or gradient."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
