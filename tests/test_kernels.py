import numpy as np
import pytest

from evstudy import estimate
from evstudy import kernels

from helpers import make_fuzz_panel

TAG_ROWS = [("twfe", 0), ("cs_dcdh_default", 1), ("cs_dcdh_universal", 2), ("bjs", 3)]


@pytest.fixture(params=["numpy"] + (["numba"] if kernels.HAVE_NUMBA else []))
def backend(request, monkeypatch):
    monkeypatch.setenv("EVSTUDY_BACKEND", request.param)
    return request.param


def test_active_backend_env(monkeypatch):
    monkeypatch.setenv("EVSTUDY_BACKEND", "numpy")
    assert kernels.active_backend() == "numpy"
    monkeypatch.setenv("EVSTUDY_BACKEND", "bogus")
    with pytest.raises(ValueError):
        kernels.active_backend()


def test_coef_matrix_matches_estimators(backend, default_panel):
    mat = kernels.coef_matrix(default_panel.outcomes, default_panel.treated, default_panel.t_min)
    offset = default_panel.t_min - 1
    for tag, row in TAG_ROWS:
        est = estimate(default_panel, tag)
        for r, value in est.coefficients.items():
            assert mat[row, r - offset] == pytest.approx(value, abs=1e-12)
        for r in est.omitted:
            assert np.isnan(mat[row, r - offset])


def test_backend_parity(monkeypatch):
    if not kernels.HAVE_NUMBA:
        pytest.skip("numba unavailable")
    rng = np.random.default_rng(5)
    for _ in range(5):
        panel = make_fuzz_panel(rng)
        monkeypatch.setenv("EVSTUDY_BACKEND", "numpy")
        a = kernels.coef_matrix(panel.outcomes, panel.treated, panel.t_min)
        monkeypatch.setenv("EVSTUDY_BACKEND", "numba")
        b = kernels.coef_matrix(panel.outcomes, panel.treated, panel.t_min)
        assert np.nanmax(np.abs(a - b)) < 1e-12
        assert np.array_equal(np.isnan(a), np.isnan(b))


def test_bootstrap_identity_indices(backend, default_panel):
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
