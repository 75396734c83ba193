"""Event-study estimators for the common-treatment-date setting.

Each estimator is a difference-of-group-means construction; they differ only
in the baseline used for each relative time r (period t = r + 1):

  * ``twfe``             -- every period compared to period 0 (r = -1 omitted).
  * ``cs_dcdh_default``  -- pre periods compared to the prior period
    ("short differences"), post periods to period 0; earliest r omitted.
  * ``cs_dcdh_universal``-- period-0 baseline everywhere, identical to TWFE.
  * ``bjs``              -- pre periods compared to the earliest period, post
    periods to the unit-level pre-treatment mean; earliest r omitted.

The closed forms are the rows ``kernels.coef_matrix`` returns for the tags
asked for; the rules themselves are written once, in
``kernels.baseline_coefs``. ``twfe_regression`` and ``bjs_imputation`` run
the genuine least-squares / imputation algorithms, each with one
fixed-effects solve, and must agree with the closed forms; the tests use
that agreement as a cross-check.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .panel import TREATMENT_DATE, PanelDataset
from .spec import TAGS, EventStudyEstimate, UnknownEstimator


class SingularDesign(RuntimeError):
    """Least-squares design matrix is rank deficient."""


def estimate_many(panel: PanelDataset, tags: list[str], n_pre: int | None = None) -> list[EventStudyEstimate]:
    """Closed-form estimates for each named estimator, all from one ``coef_matrix``.

    Each estimate is its tag's row, read by ``kernels.row_estimate``; the
    row's NaN positions are the omitted categories. ``n_pre`` (default: all
    available) is the number of BJS pre coefficients, the earlier periods
    pooling into the BJS pre baseline; it leaves the others as they are.
    Raises as ``kernels.baseline_coefs`` does.
    """
    mat = kernels.coef_matrix(panel.outcomes, panel.treated, panel.t_min, tags, n_pre)
    return [kernels.row_estimate(tag, row, panel.t_min) for tag, row in zip(tags, mat)]


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
    fitted over that mask. A layer enters the fit only through its sums
    over the mask per unit and per period, so ``effects`` fits any number
    of layers from their sums with one solve.
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

    def effects(self, unit_sums: np.ndarray, period_sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``alpha`` (n, k) and ``lam`` (T, k) of k layers from their sums over the mask.

        Column l of ``unit_sums`` (n, k) and of ``period_sums`` (T, k) holds
        layer l's sums per unit and per period over the mask's cells.
        """
        rhs = period_sums - self.w.T @ (unit_sums / self.c_n[:, None])
        lam = np.zeros(rhs.shape)
        lam[1:] = np.linalg.solve(self.S, rhs[1:])
        alpha = self.w @ lam
        np.subtract(unit_sums, alpha, out=alpha)
        alpha /= self.c_n[:, None]
        return alpha, lam


def _scaled_outcomes(panel: PanelDataset) -> tuple[np.ndarray, int]:
    """(outcomes * 2**-e, e), every scaled outcome below 1 in magnitude.

    The twins are linear in the outcomes, so running them on the scaled
    outcomes and scaling the results back by 2**e is exact, and their sums
    and residuals cannot overflow on a panel near the validation bound.
    """
    e = int(np.frexp(np.abs(panel.outcomes).max())[1])
    return np.ldexp(panel.outcomes, -e), e


def _projection(fe: _FixedEffects, treated: np.ndarray, cols: list[int], y: np.ndarray):
    """(X'MX, X'My, counts, alpha_y, lam_y) for the indicators D_j = treated x e_cols[j].

    M is the projection off the fixed effects over ``fe``'s cells,
    ``counts`` the number of cells of each D_j, and alpha_y (n,) and lam_y
    (T,) y's own fixed effects over those cells. D_j's unit sums over the
    mask are column cols[j] of the treated rows of W, and its only period
    sum is counts[j], at cols[j]; with y's own sums these give the effects
    of y and of every D_j from one ``effects`` solve, and no (n, T) layer of
    any D_j is built. D_i' M z = D_i' z - sum of alpha_z over D_i's cells -
    counts[i] * lam_z[cols[i]], which reads X'MX and X'My off the (n, 1 + K)
    unit effects and the K rows of period effects at ``cols``.
    """
    d = treated.astype(float)
    k = len(cols)
    # Column 0 holds y's sums, column 1 + j D_j's. Indexing W at column 0
    # too gives the block its shape; y's unit sums overwrite that column.
    unit_sums = fe.w[:, [0, *cols]]
    unit_sums *= d[:, None]
    counts = unit_sums[:, 1:].sum(axis=0)
    yw = y * fe.w
    unit_sums[:, 0] = yw.sum(axis=1)
    period_sums = np.zeros((y.shape[1], 1 + k))
    period_sums[:, 0] = yw.sum(axis=0)
    period_sums[cols, range(1, 1 + k)] = counts
    direct = np.zeros((k, 1 + k))  # D_i' y and D_i' D_j over the mask
    direct[:, 0] = (d @ yw)[cols]
    direct[:, 1:] = np.diag(counts)
    del yw
    alpha, lam = fe.effects(unit_sums, period_sums)
    proj = direct - (unit_sums.T @ alpha)[1:] - counts[:, None] * lam[cols]
    return proj[:, 1:], proj[:, 0], counts, alpha[:, 0], lam[:, 0]


def _fwl(panel: PanelDataset, periods, fe: _FixedEffects, y: np.ndarray):
    """(beta, alpha_y, lam_y): a least-squares fit of ``y`` over the cells of ``fe``.

    ``y`` is regressed on unit effects, period effects and the indicator
    D_j = treated x period t_j for each t_j in ``periods``; beta is the
    indicators' coefficients in that order. Frisch-Waugh-Lovell: with M
    the projection off the effects, the K x K normal equations
    X'MX beta = X'My are solved, their entries taken from one batched fit
    of y and all K indicators (``_projection``) in O(n K) memory. That fit
    also gives y's own effects alpha_y (n,) and lam_y (T,), passed on so
    that no caller solves for them again.
    """
    cols = [panel.period_index(t) for t in periods]
    xtmx, xtmy, counts, alpha, lam = _projection(fe, panel.treated, cols, y)
    # D_i is 0/1, so X'MX is on the scale of the indicators' cell counts; a
    # tolerance relative to X'MX itself would accept a matrix of round-off,
    # as when every unit is treated and the period effects absorb each D_j.
    tol = len(cols) * np.finfo(float).eps * counts.max(initial=0.0)
    if np.linalg.matrix_rank(xtmx, tol=tol) < len(cols):
        raise SingularDesign("event-time design is rank deficient given the fixed effects")
    return np.linalg.solve(xtmx, xtmy), alpha, lam


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
    beta = np.ldexp(_fwl(panel, periods, fe, y)[0], e)
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
    to zero. One fixed-effects solve over the untreated cells serves both.
    """
    y, e = _scaled_outcomes(panel)
    fe = _FixedEffects(_untreated_mask(panel))
    # Pre side first: an untreated-cell regression with treated x period
    # indicators for t in [t_min + 1, 0] (relative times t_min .. -1). Its
    # rank check rejects a panel without treated units before the post side
    # could average over none.
    pre, alpha, lam = _fwl(panel, range(panel.t_min + 1, TREATMENT_DATE), fe, y)
    # Post side, relative times 0 .. t_max - 1, from the effects of y that
    # the pre side's fit solved for alongside the indicators'.
    j = panel.period_index(TREATMENT_DATE)
    tau = y[panel.treated, j:] - alpha[panel.treated, None] - lam[j:]
    beta = np.ldexp(np.concatenate([pre, tau.mean(axis=0)]), e)
    coefs = dict(zip(range(panel.t_min, panel.t_max), beta.tolist()))
    return EventStudyEstimate("bjs", coefs, frozenset({panel.t_min - 1}))
