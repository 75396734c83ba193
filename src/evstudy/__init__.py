"""Event-study toolkit for non-staggered difference-in-differences.

Implements the dynamic TWFE, CS/dCDH (default and universal-base) and
BJS-imputation event-study estimators as difference-of-means constructions,
a linear-trend-violation simulation DGP, analytic population oracles, a
stratified unit bootstrap, and a Monte Carlo driver. The CLI
(``evstudy simulate|estimate|plot|montecarlo``) wraps the pipeline.
"""

from .dgp import DgpConfig, InvalidConfig, expected_outcome, simulate
from .estimators import (
    EventStudyEstimate,
    FixedEffectsFit,
    ImputationResult,
    SingularDesign,
    UnknownEstimator,
    bjs_closed_form,
    bjs_imputation,
    cs_dcdh_default,
    cs_dcdh_universal,
    estimate,
    estimate_many,
    fit_twfe_on_untreated,
    impute_treatment_effects,
    twfe_closed_form,
    twfe_regression,
)
from .inference import BootstrapConfig, bootstrap, bootstrap_many
from .montecarlo import McReport, run_mc
from .oracle import (
    OmittedCategory,
    PopulationCurve,
    brute_force_did,
    population_bjs,
    population_cs_dcdh,
    population_curve,
    population_twfe,
)
from .panel import (
    DegenerateGroups,
    InconsistentTreatment,
    NonIntegerTime,
    PanelDataset,
    PanelError,
    TimeOutOfRange,
    UnbalancedPanel,
    group_mean,
    validate_panel,
)

__version__ = "0.1.0"
