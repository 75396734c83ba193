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

