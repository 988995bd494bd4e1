"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["ConfigError", "NanAbortError"]


class ConfigError(ValueError):
    """A scenario or run configuration is unusable (CLI exit code 3)."""


class NanAbortError(RuntimeError):
    """The solution stopped being finite; carries the offending step index
    and the 0-based index of the population whose density did."""

    def __init__(self, step_index: int, population: int):
        self.step_index = step_index
        self.population = population
        super().__init__(
            f"non-finite density after step {step_index} (population {population + 1})"
        )
