"""Event-study estimators for the common-treatment-date setting.

Each estimator is a difference-of-group-means construction; they differ only
in the baseline used for each relative time r (period t = r + 1):

  * ``twfe``             -- every period compared to period 0 (r = -1 omitted).
  * ``cs_dcdh_default``  -- pre periods compared to the prior period
    ("short differences"), post periods to period 0; earliest r omitted.
  * ``cs_dcdh_universal``-- period-0 baseline everywhere, identical to TWFE.
  * ``bjs``              -- pre periods compared to the earliest period, post
    periods to the unit-level pre-treatment mean; earliest r omitted.

The closed forms are rows of ``kernels.coef_matrix``; the rules themselves
are written once, in ``kernels.baseline_coefs``. ``twfe_regression`` and
``bjs_imputation`` run the genuine least-squares / imputation algorithms and
must agree with the closed forms; the tests use that agreement as a
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .panel import PanelDataset

TAGS = ("twfe", "cs_dcdh_default", "cs_dcdh_universal", "bjs")

TAG_CODES = {
    "twfe": kernels.TWFE,
    "cs_dcdh_default": kernels.CS_DEFAULT,
    "cs_dcdh_universal": kernels.CS_UNIVERSAL,
    "bjs": kernels.BJS,
}


class UnknownEstimator(ValueError):
    """Estimator tag not recognized."""


class SingularDesign(RuntimeError):
    """Least-squares design matrix is rank deficient."""


@dataclass(frozen=True)
class EventStudyEstimate:
    """Coefficients by relative time, with omitted-category metadata.

    ``se``/``ci`` stay None until filled by the bootstrap; ``ci`` maps r to
    (low, high) at confidence level ``level``.
    """

    estimator: str
    coefficients: dict[int, float]
    omitted: frozenset[int]
    se: dict[int, float] | None = None
    ci: dict[int, tuple[float, float]] | None = None
    level: float | None = None

    @property
    def rel_times(self) -> list[int]:
        return sorted(self.coefficients)


@dataclass(frozen=True)
class FixedEffectsFit:
    """Unit and period effects from least squares on a subset of cells.

    Only alpha_i + lambda_t is identified; ``normalization`` documents the
    constraint that pins the individual effects.
    """

    alpha: dict[str, float]
    lam: dict[int, float]
    normalization: str

    def predict(self, unit_id: str, t: int) -> float:
        return self.alpha[unit_id] + self.lam[t]


@dataclass(frozen=True)
class ImputationResult:
    """Per-cell effect estimates tau_it = Y_it - Yhat_it on treated post cells."""

    tau: dict[tuple[str, int], float]
    fit: FixedEffectsFit


def estimate_many(panel: PanelDataset, tags: list[str], n_pre: int | None = None) -> list[EventStudyEstimate]:
    """Closed-form estimates for each named estimator, all from one ``coef_matrix``.

    Each estimate is its estimator's row; the row's NaN positions are the
    omitted categories. ``n_pre`` (default: all available) is the number of
    BJS pre coefficients, the earlier periods pooling into the BJS pre
    baseline; it needs ``bjs`` among ``tags`` and leaves the others as they are.
    """
    for tag in tags:
        if tag not in TAG_CODES:
            raise UnknownEstimator(f"unknown estimator {tag!r}; choose from {TAGS}")
    if n_pre is not None:
        if "bjs" not in tags:
            raise ValueError("n_pre applies to the bjs estimator only")
        if not (1 <= n_pre <= -panel.t_min):
            raise ValueError(f"n_pre must be in [1, {-panel.t_min}], got {n_pre}")
    mat = kernels.coef_matrix(panel.outcomes, panel.treated, panel.t_min, n_pre)
    rel_times = range(panel.t_min - 1, panel.t_max)
    out = []
    for tag in tags:
        row = mat[TAG_CODES[tag]]
        coefs = {r: float(v) for r, v in zip(rel_times, row) if not np.isnan(v)}
        omitted = frozenset(r for r, v in zip(rel_times, row) if np.isnan(v))
        out.append(EventStudyEstimate(tag, coefs, omitted))
    return out


def estimate(panel: PanelDataset, tag: str) -> EventStudyEstimate:
    """Run the estimator named by ``tag`` (closed-form route)."""
    return estimate_many(panel, [tag])[0]


def twfe_closed_form(panel: PanelDataset) -> EventStudyEstimate:
    """Dynamic TWFE coefficients via the difference-of-means identity."""
    return estimate(panel, "twfe")


def cs_dcdh_default(panel: PanelDataset) -> EventStudyEstimate:
    """Default CS / dCDH plot: short differences pre, long differences post."""
    return estimate(panel, "cs_dcdh_default")


def cs_dcdh_universal(panel: PanelDataset) -> EventStudyEstimate:
    """CS / dCDH with the universal period-0 baseline; equals TWFE exactly."""
    return estimate(panel, "cs_dcdh_universal")


def bjs_closed_form(panel: PanelDataset, n_pre: int | None = None) -> EventStudyEstimate:
    """Imputation-style coefficients via their sample-mean reduction.

    Pre coefficients compare each period to the earliest period (or, when
    fewer than the maximal ``n_pre`` coefficients are requested, to the mean
    of the pooled omitted periods); post coefficients compare to the
    unit-level mean outcome over t <= 0.
    """
    return estimate_many(panel, ["bjs"], n_pre)[0]


def _double_demean(v: np.ndarray) -> np.ndarray:
    """Within transformation for a balanced (units x periods) matrix."""
    return v - v.mean(axis=1, keepdims=True) - v.mean(axis=0, keepdims=True) + v.mean()


def twfe_regression(panel: PanelDataset) -> EventStudyEstimate:
    """Dynamic TWFE via genuine least squares (within/demeaning route).

    Unit and period effects are absorbed by double demeaning, exact on a
    balanced panel; the event-time coefficients then come from OLS on the
    demeaned interactions.
    """
    n, T = panel.outcomes.shape
    d = panel.treated.astype(float)[:, None]
    y_dm = _double_demean(panel.outcomes).ravel()
    periods = [t for t in range(panel.t_min, panel.t_max + 1) if t != 0]
    cols = []
    for t in periods:
        x = np.zeros((n, T))
        x[:, panel.period_index(t)] = d[:, 0]
        cols.append(_double_demean(x).ravel())
    X = np.column_stack(cols)
    beta, _, rank, _ = np.linalg.lstsq(X, y_dm, rcond=None)
    if rank < X.shape[1]:
        raise SingularDesign("demeaned event-time design is rank deficient")
    coefs = {t - 1: float(b) for t, b in zip(periods, beta)}
    return EventStudyEstimate("twfe", dict(sorted(coefs.items())), frozenset({-1}))


def _untreated_mask(panel: PanelDataset) -> np.ndarray:
    """Boolean (units x periods) mask of cells that are untreated."""
    mask = np.ones_like(panel.outcomes, dtype=bool)
    post = panel.times >= panel.treatment_date
    mask[np.ix_(panel.treated, post)] = False
    return mask


def _fe_design(panel: PanelDataset, mask: np.ndarray):
    """Intercept + unit/period dummy design over the masked cells."""
    rows, cols = np.nonzero(mask)
    n, T = panel.outcomes.shape
    n_obs = rows.size
    X = np.zeros((n_obs, 1 + (n - 1) + (T - 1)))
    X[:, 0] = 1.0
    for k in range(n_obs):
        if rows[k] > 0:
            X[k, rows[k]] = 1.0
        if cols[k] > 0:
            X[k, n + cols[k] - 1] = 1.0
    y = panel.outcomes[rows, cols]
    return X, y, rows, cols


def fit_twfe_on_untreated(panel: PanelDataset) -> FixedEffectsFit:
    """Least-squares unit and period effects on the untreated cells only.

    Untreated cells are all control-unit cells plus treated-unit cells with
    t <= 0. Normalization: the first unit absorbs the intercept and the
    earliest period's effect is zero; predictions do not depend on it.
    """
    mask = _untreated_mask(panel)
    if not mask.any(axis=1).all() or not mask.any(axis=0).all():
        raise SingularDesign("a unit or period has no untreated cell")
    X, y, _, _ = _fe_design(panel, mask)
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise SingularDesign("fixed-effects design on untreated cells is rank deficient")
    n, T = panel.outcomes.shape
    alpha = {panel.unit_ids[0]: float(beta[0])}
    for i in range(1, n):
        alpha[panel.unit_ids[i]] = float(beta[0] + beta[i])
    lam = {panel.t_min: 0.0}
    for j in range(1, T):
        lam[panel.t_min + j] = float(beta[n + j - 1])
    return FixedEffectsFit(
        alpha=alpha,
        lam=lam,
        normalization=f"unit {panel.unit_ids[0]!r} absorbs the intercept; period {panel.t_min} effect pinned to 0",
    )


def impute_treatment_effects(panel: PanelDataset) -> ImputationResult:
    """tau_it = Y_it - (alpha_i + lambda_t) on treated-unit post cells."""
    fit = fit_twfe_on_untreated(panel)
    tau = {}
    for i in np.nonzero(panel.treated)[0]:
        uid = panel.unit_ids[i]
        for t in range(panel.treatment_date, panel.t_max + 1):
            tau[(uid, t)] = float(panel.outcomes[i, panel.period_index(t)] - fit.predict(uid, t))
    return ImputationResult(tau=tau, fit=fit)


def bjs_imputation(panel: PanelDataset) -> EventStudyEstimate:
    """Imputation estimator via its genuine two-step algorithm.

    Post coefficients average the imputed effects tau_it at each lag. Pre
    coefficients come from a dynamic TWFE regression on untreated cells with
    indicators for periods until treatment, earliest pre period normalized
    to zero.
    """
    imp = impute_treatment_effects(panel)
    treated_ids = [panel.unit_ids[i] for i in np.nonzero(panel.treated)[0]]
    coefs: dict[int, float] = {}
    for r in range(0, panel.t_max):
        t = r + 1
        coefs[r] = float(np.mean([imp.tau[(uid, t)] for uid in treated_ids]))

    # Pre side: untreated-cell regression with treated x period indicators
    # for t in [t_min + 1, 0] (relative times t_min .. -1).
    mask = _untreated_mask(panel)
    X_fe, y, rows, cols = _fe_design(panel, mask)
    d = panel.treated[rows].astype(float)
    pre_periods = list(range(panel.t_min + 1, panel.treatment_date))
    dyn = np.zeros((rows.size, len(pre_periods)))
    for k, t in enumerate(pre_periods):
        dyn[:, k] = d * (cols == panel.period_index(t))
    X = np.hstack([X_fe, dyn])
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise SingularDesign("pre-period dynamic design is rank deficient")
    n_fe = X_fe.shape[1]
    for k, t in enumerate(pre_periods):
        coefs[t - 1] = float(beta[n_fe + k])

    return EventStudyEstimate(
        "bjs", dict(sorted(coefs.items())), frozenset({panel.t_min - 1})
    )
