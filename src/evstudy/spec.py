"""Error classes, estimator tags and configuration records, free of numpy.

Everything here imports only the standard library, so the CLI can parse
flags, check configs and catch every error class without loading numpy;
``plot`` never loads it at all. The numeric modules re-export these names
(``panel.PanelError``, ``dgp.DgpConfig``, ``estimators.TAGS``,
``inference.BootstrapConfig``, ``tableio.CsvFormatError``, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TAGS = ("twfe", "cs_dcdh_default", "cs_dcdh_universal", "bjs")


class PanelError(Exception):
    """Base class for panel validation failures."""


class UnbalancedPanel(PanelError):
    """A (unit, time) cell is missing or duplicated."""


class InconsistentTreatment(PanelError):
    """Treatment indicator varies within a unit, or is not 0/1."""


class DegenerateGroups(PanelError):
    """All units treated, or all units untreated."""


class NonIntegerTime(PanelError):
    """A time value is not an integer."""


class NonFiniteOutcome(PanelError):
    """An outcome is NaN or infinite, or outcomes are too large for the estimators' sums."""


class InsufficientPeriods(PanelError):
    """Fewer than two pre-treatment periods or no post-treatment period."""


class TimeOutOfRange(PanelError):
    """Requested period lies outside the panel's time range."""


class InvalidConfig(ValueError):
    """DGP configuration violates its invariants."""


class UnknownEstimator(ValueError):
    """Estimator tag not recognized."""


class CsvFormatError(ValueError):
    """Input file does not match the expected schema."""


@dataclass(frozen=True)
class DgpConfig:
    """Parameters of the simulation design.

    Defaults reproduce the illustrative design: gamma=0.5, periods -15..10,
    100 units with half treated, unit-variance noise.
    """

    gamma: float = 0.5
    t_min: int = -15
    t_max: int = 10
    n_treated: int = 50
    n_control: int = 50
    error_sd: float = 1.0
    seed: int = 1

    def __post_init__(self):
        if self.t_min > -1 or self.t_max < 1:
            raise InvalidConfig(f"need t_min <= -1 and t_max >= 1, got [{self.t_min}, {self.t_max}]")
        if self.n_treated < 1 or self.n_control < 1:
            raise InvalidConfig("need at least one treated and one control unit")
        if not math.isfinite(self.gamma):
            raise InvalidConfig(f"gamma must be finite, got {self.gamma}")
        if not 0 < self.error_sd < math.inf:
            raise InvalidConfig(f"error_sd must be positive and finite, got {self.error_sd}")
        if not (0 <= self.seed < 2**64):
            raise InvalidConfig(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class BootstrapConfig:
    replications: int = 999
    seed: int = 0
    level: float = 0.95
    method: str = "normal"  # "normal" | "percentile"

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError("need at least 2 bootstrap replications")
        if not (0.0 < self.level < 1.0):
            raise ValueError(f"confidence level must be in (0, 1), got {self.level}")
        if self.method not in ("normal", "percentile"):
            raise ValueError(f"method must be 'normal' or 'percentile', got {self.method!r}")
