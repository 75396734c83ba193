"""Event-study toolkit for non-staggered difference-in-differences.

Implements the dynamic TWFE, CS/dCDH (default and universal-base) and
BJS-imputation event-study estimators as difference-of-means constructions,
a linear-trend-violation simulation DGP, analytic population oracles, a
stratified unit bootstrap, and a Monte Carlo driver. The CLI
(``evstudy simulate|estimate|plot|montecarlo``) wraps the pipeline.
"""

import importlib

# Exported name -> the module that provides it. Modules load on first
# access (PEP 562), so ``import evstudy`` itself loads no numpy.
_EXPORTS = {
    **dict.fromkeys((
        "BootstrapConfig", "DegenerateGroups", "DgpConfig", "EventStudyEstimate",
        "InconsistentTreatment", "InvalidConfig", "NonIntegerTime", "PanelError",
        "TimeOutOfRange", "UnbalancedPanel", "UnknownEstimator",
    ), "spec"),
    **dict.fromkeys(("simulate",), "dgp"),
    **dict.fromkeys((
        "SingularDesign", "bjs_imputation", "estimate", "estimate_many", "twfe_regression",
    ), "estimators"),
    **dict.fromkeys(("bootstrap_many",), "inference"),
    **dict.fromkeys(("run_mc",), "montecarlo"),
    **dict.fromkeys(("brute_force_did", "population_curve"), "oracle"),
    **dict.fromkeys(("PanelDataset",), "panel"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.5.0"
