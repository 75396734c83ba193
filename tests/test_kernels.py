import numpy as np
import pytest

from evstudy import estimate
from evstudy import kernels

TAG_ROWS = [("twfe", 0), ("cs_dcdh_default", 1), ("cs_dcdh_universal", 2), ("bjs", 3)]


def test_coef_matrix_matches_estimators(default_panel):
    mat = kernels.coef_matrix(default_panel.outcomes, default_panel.treated, default_panel.t_min)
    offset = default_panel.t_min - 1
    for tag, row in TAG_ROWS:
        est = estimate(default_panel, tag)
        for r, value in est.coefficients.items():
            assert mat[row, r - offset] == pytest.approx(value, abs=1e-12)
        for r in est.omitted:
            assert np.isnan(mat[row, r - offset])


def test_bootstrap_identity_indices(default_panel):
    # Resampling every unit once (all-ones counts) reproduces the point estimates.
    y1 = default_panel.outcomes[default_panel.treated]
    y0 = default_panel.outcomes[~default_panel.treated]
    c1 = np.ones((1, y1.shape[0]))
    c0 = np.ones((1, y0.shape[0]))
    reps = kernels.bootstrap_coefs(y1, y0, c1, c0, default_panel.t_min)
    offset = default_panel.t_min - 1
    for tag, code in TAG_ROWS:
        est = estimate(default_panel, tag)
        for r, value in est.coefficients.items():
            assert reps[code, 0, r - offset] == pytest.approx(value, abs=1e-10)
