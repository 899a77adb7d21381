"""Exception types shared across the package."""


class GraphPowerError(Exception):
    """Base class for all package errors."""


class DomainError(GraphPowerError):
    """A closed-form evaluator was called outside its mathematical domain."""


class BudgetExceededError(GraphPowerError):
    """An exact solver ran past its node/work budget.

    Carries the best bounds known at abort time, when available.
    """

    def __init__(self, message, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class MemoryBudgetError(GraphPowerError):
    """Materializing an explicit structure would exceed the edge cap."""


class ForestViolationError(GraphPowerError):
    """The high-degree subgraph is not a forest; two-phase coloring aborts.

    ``cycle`` holds one witness cycle as a list of vertex indices.
    """

    def __init__(self, cycle):
        super().__init__(f"induced high-degree subgraph contains a cycle of length {len(cycle)}")
        self.cycle = list(cycle)


class NoConvergenceError(GraphPowerError):
    """A solver's answer misses its tolerance; carries the final bracket."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class ConfigError(GraphPowerError):
    """Invalid experiment configuration or config-file syntax."""


def require(ok, message):
    """Refuse an out-of-range value as a config error (exit 2)."""
    if not ok:
        raise ConfigError(message)
