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
from .spec import TAGS, UnknownEstimator

TAG_CODES = {
    "twfe": kernels.TWFE,
    "cs_dcdh_default": kernels.CS_DEFAULT,
    "cs_dcdh_universal": kernels.CS_UNIVERSAL,
    "bjs": kernels.BJS,
}


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


def _fe_solve(z: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares unit and period effects of each (n, T) layer of ``z`` over ``mask``.

    Fits z_it = alpha_i + lambda_t on the cells where ``mask`` is true and
    returns ``alpha`` of shape (..., n) and ``lam`` of shape (..., T), the
    earliest period's effect pinned to 0. The unit block of the normal
    equations is diagonal, so the unit effects are eliminated exactly; what
    is left is the (T-1) x (T-1) system in the period effects with matrix
    S = diag(c_T) - W' diag(1/c_n) W, where W is the 0/1 cell matrix and
    c_n, c_T count its cells per unit and per period.
    """
    w = mask.astype(float)
    c_n = w.sum(axis=1)
    if not c_n.all():
        raise SingularDesign("a unit has no cell in the fixed-effects fit")
    zw = z * w
    unit_sums = zw.sum(axis=-1)
    rhs = zw.sum(axis=-2) - (unit_sums / c_n) @ w
    S = (np.diag(w.sum(axis=0)) - w.T @ (w / c_n[:, None]))[1:, 1:]
    if np.linalg.matrix_rank(S) < S.shape[0]:
        raise SingularDesign("fixed-effects normal equations are rank deficient")
    lam = np.zeros(rhs.shape)
    lam[..., 1:] = np.linalg.solve(S, rhs[..., 1:].T).T
    alpha = (unit_sums - lam @ w.T) / c_n
    return alpha, lam


def _scaled_outcomes(panel: PanelDataset) -> tuple[np.ndarray, int]:
    """(outcomes * 2**-e, e), every scaled outcome below 1 in magnitude.

    The twins are linear in the outcomes, so running them on the scaled
    outcomes and scaling the results back by 2**e is exact, and their sums
    and residuals cannot overflow on a panel near the validation bound.
    """
    e = int(np.frexp(np.abs(panel.outcomes).max())[1])
    return np.ldexp(panel.outcomes, -e), e


def _fwl(panel: PanelDataset, periods, mask: np.ndarray) -> dict[int, float]:
    """Event-time coefficients of a least-squares fit over the cells in ``mask``.

    Y_it is regressed on unit effects, period effects and a treated x period
    indicator for each t in ``periods``; the result maps r = t - 1 to the
    indicator's coefficient. Frisch-Waugh-Lovell: the effects are partialled
    out of the outcome and of every indicator, and the residual outcome is
    regressed on the residual indicators.
    """
    cols = [panel.period_index(t) for t in periods]
    y, e = _scaled_outcomes(panel)
    z = np.concatenate([y[None],
                        panel.treated[None, :, None] * np.eye(panel.n_periods)[cols][:, None, :]])
    alpha, lam = _fe_solve(z, mask)
    resid = (z - alpha[..., None] - lam[:, None, :])[:, mask]
    beta, _, rank, _ = np.linalg.lstsq(resid[1:].T, resid[0], rcond=None)
    if rank < len(cols):
        raise SingularDesign("event-time design is rank deficient given the fixed effects")
    return {t - 1: b for t, b in zip(periods, np.ldexp(beta, e).tolist())}


def twfe_regression(panel: PanelDataset) -> EventStudyEstimate:
    """Dynamic TWFE via genuine least squares.

    Y_it is regressed on unit effects, period effects and treated x period
    indicators for every period but t = 0; the effects are partialled out
    exactly (``_fwl``) and the event-time coefficients are the OLS
    coefficients on the indicators.
    """
    periods = [t for t in range(panel.t_min, panel.t_max + 1) if t != 0]
    coefs = _fwl(panel, periods, np.ones(panel.outcomes.shape, dtype=bool))
    return EventStudyEstimate("twfe", coefs, frozenset({-1}))


def _untreated_mask(panel: PanelDataset) -> np.ndarray:
    """Boolean (units x periods) mask of cells that are untreated."""
    return ~(panel.treated[:, None] & (panel.times >= panel.treatment_date))


def fit_twfe_on_untreated(panel: PanelDataset) -> FixedEffectsFit:
    """Least-squares unit and period effects on the untreated cells only.

    Untreated cells are all control-unit cells plus treated-unit cells with
    t <= 0. Normalization: the first unit absorbs the intercept and the
    earliest period's effect is zero; predictions do not depend on it.
    """
    y, e = _scaled_outcomes(panel)
    alpha, lam = _fe_solve(y, _untreated_mask(panel))
    return FixedEffectsFit(
        alpha=dict(zip(panel.unit_ids, np.ldexp(alpha, e).tolist())),
        lam=dict(zip(range(panel.t_min, panel.t_max + 1), np.ldexp(lam, e).tolist())),
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
    mask = _untreated_mask(panel)
    y, e = _scaled_outcomes(panel)
    alpha, lam = _fe_solve(y, mask)
    post = range(panel.treatment_date, panel.t_max + 1)
    j = panel.period_index(panel.treatment_date)
    tau = y[panel.treated, j:] - alpha[panel.treated, None] - lam[j:]
    coefs = dict(zip((t - 1 for t in post), np.ldexp(tau.mean(axis=0), e).tolist()))

    # Pre side: untreated-cell regression with treated x period indicators
    # for t in [t_min + 1, 0] (relative times t_min .. -1).
    coefs.update(_fwl(panel, range(panel.t_min + 1, panel.treatment_date), mask))
    return EventStudyEstimate("bjs", dict(sorted(coefs.items())), frozenset({panel.t_min - 1}))
