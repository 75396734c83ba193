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
from .panel import TREATMENT_DATE, PanelDataset
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
    (low, high).
    """

    estimator: str
    coefficients: dict[int, float]
    omitted: frozenset[int]
    se: dict[int, float] | None = None
    ci: dict[int, tuple[float, float]] | None = None


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
    """The closed-form estimate of the one estimator named by ``tag``.

    ``estimate_many(panel, [tag])[0]``; kept because the benchmark's
    ``crosscheck_400`` workload (``perfbench/worker.py``) calls it.
    """
    return estimate_many(panel, [tag])[0]


class _FixedEffects:
    """The unit-and-period-effects least-squares fit over the cells of one mask.

    Fits z_it = alpha_i + lambda_t on the cells where ``mask`` is true, the
    earliest period's effect pinned to 0. The unit block of the normal
    equations is diagonal, so the unit effects are eliminated exactly; what
    is left is the (T-1) x (T-1) system in the period effects with matrix
    S = diag(c_T) - W' diag(1/c_n) W, where W is the 0/1 cell matrix and
    c_n, c_T count its cells per unit and per period. S and its rank check
    depend on the mask alone, so they are built once and serve every layer
    fitted over that mask.
    """

    def __init__(self, mask: np.ndarray):
        self.w = mask.astype(float)
        self.c_n = self.w.sum(axis=1)
        if not self.c_n.all():
            raise SingularDesign("a unit has no cell in the fixed-effects fit")
        w = self.w
        self.S = (np.diag(w.sum(axis=0)) - w.T @ (w / self.c_n[:, None]))[1:, 1:]
        if np.linalg.matrix_rank(self.S) < self.S.shape[0]:
            raise SingularDesign("fixed-effects normal equations are rank deficient")

    def fit(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``alpha`` of shape (n,) and ``lam`` of shape (T,) of the (n, T) layer ``z``."""
        zw = z * self.w
        unit_sums = zw.sum(axis=1)
        rhs = zw.sum(axis=0) - (unit_sums / self.c_n) @ self.w
        lam = np.zeros(rhs.shape)
        lam[1:] = np.linalg.solve(self.S, rhs[1:])
        alpha = (unit_sums - self.w @ lam) / self.c_n
        return alpha, lam

    def residual(self, z: np.ndarray) -> np.ndarray:
        """The (n, T) layer ``z`` with its effects partialled out; 0 off the mask."""
        alpha, lam = self.fit(z)
        return (z - alpha[:, None] - lam) * self.w


def _scaled_outcomes(panel: PanelDataset) -> tuple[np.ndarray, int]:
    """(outcomes * 2**-e, e), every scaled outcome below 1 in magnitude.

    The twins are linear in the outcomes, so running them on the scaled
    outcomes and scaling the results back by 2**e is exact, and their sums
    and residuals cannot overflow on a panel near the validation bound.
    """
    e = int(np.frexp(np.abs(panel.outcomes).max())[1])
    return np.ldexp(panel.outcomes, -e), e


def _fwl(panel: PanelDataset, periods, fe: _FixedEffects, y: np.ndarray) -> np.ndarray:
    """Event-time coefficients of a least-squares fit of ``y`` over the cells of ``fe``.

    ``y`` is regressed on unit effects, period effects and the indicator
    D_j = treated x period t_j for each t_j in ``periods``; the result is
    the indicators' coefficients in that order. Frisch-Waugh-Lovell: the
    effects are partialled out of ``y`` and of one D_j at a time, M being
    the projection off the effects, and the K x K normal equations
    X'MX beta = X'My are solved. Entry (i, j) of X'MX is D_i' M D_j, the
    treated rows' sum of D_j's residual at period t_i, and X'My is read off
    the residual of ``y`` the same way, so only one (n, T) layer exists at a
    time.
    """
    cols = [panel.period_index(t) for t in periods]
    treated = panel.treated.astype(float)
    xtmy = (treated @ fe.residual(y))[cols]
    xtmx = np.empty((len(cols), len(cols)))
    d = np.zeros(y.shape)
    for j, col in enumerate(cols):
        d[:, col] = treated
        xtmx[:, j] = (treated @ fe.residual(d))[cols]
        d[:, col] = 0.0
    # D_i is 0/1, so X'MX is on the scale of the indicators' cell counts; a
    # tolerance relative to X'MX itself would accept a matrix of round-off,
    # as when every unit is treated and the period effects absorb each D_j.
    counts = (treated @ fe.w)[cols]
    tol = len(cols) * np.finfo(float).eps * counts.max(initial=0.0)
    if np.linalg.matrix_rank(xtmx, tol=tol) < len(cols):
        raise SingularDesign("event-time design is rank deficient given the fixed effects")
    return np.linalg.solve(xtmx, xtmy)


def twfe_regression(panel: PanelDataset) -> EventStudyEstimate:
    """Dynamic TWFE via genuine least squares.

    Y_it is regressed on unit effects, period effects and treated x period
    indicators for every period but t = 0; the effects are partialled out
    exactly (``_fwl``) and the event-time coefficients are the OLS
    coefficients on the indicators.
    """
    periods = [t for t in range(panel.t_min, panel.t_max + 1) if t != 0]
    y, e = _scaled_outcomes(panel)
    fe = _FixedEffects(np.ones(y.shape, dtype=bool))
    beta = np.ldexp(_fwl(panel, periods, fe, y), e)
    return EventStudyEstimate("twfe", dict(zip((t - 1 for t in periods), beta.tolist())),
                              frozenset({-1}))


def _untreated_mask(panel: PanelDataset) -> np.ndarray:
    """Boolean (units x periods) mask of cells that are untreated."""
    return ~(panel.treated[:, None] & (panel.times >= TREATMENT_DATE))


def bjs_imputation(panel: PanelDataset) -> EventStudyEstimate:
    """Imputation estimator via its genuine two-step algorithm.

    Post coefficients average the imputed effects tau_it at each lag. Pre
    coefficients come from a dynamic TWFE regression on untreated cells with
    indicators for periods until treatment, earliest pre period normalized
    to zero. One fixed-effects system over the untreated cells serves both.
    """
    y, e = _scaled_outcomes(panel)
    fe = _FixedEffects(_untreated_mask(panel))
    # Pre side first: an untreated-cell regression with treated x period
    # indicators for t in [t_min + 1, 0] (relative times t_min .. -1). Its
    # rank check rejects a panel without treated units before the post side
    # could average over none.
    pre = _fwl(panel, range(panel.t_min + 1, TREATMENT_DATE), fe, y)
    # Post side: relative times 0 .. t_max - 1.
    alpha, lam = fe.fit(y)
    j = panel.period_index(TREATMENT_DATE)
    tau = y[panel.treated, j:] - alpha[panel.treated, None] - lam[j:]
    beta = np.ldexp(np.concatenate([pre, tau.mean(axis=0)]), e)
    coefs = dict(zip(range(panel.t_min, panel.t_max), beta.tolist()))
    return EventStudyEstimate("bjs", coefs, frozenset({panel.t_min - 1}))
