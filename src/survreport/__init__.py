"""Semiparametric proportional hazards for error-prone self-reported outcomes."""

from .panel import (
    ADAPTIVE,
    PREDETERMINED,
    Dataset,
    ErrorModel,
    LoadedPanel,
    PanelFormatError,
    PanelValidationError,
    StudyGrid,
    SubjectPanel,
    Violation,
    apply_rounding,
    build_dataset,
    build_grid,
    read_panel_csv,
    validate,
)
from .likelihood import (
    build_c_matrix,
    loglik_and_gradient,
    loglik_hessian,
    survival_from_increments,
    to_d_matrix,
)
from .estimate import (
    FitResult,
    SensitivityGrid,
    fit,
    lr_test,
    sensitivity_grid,
    survival_curve,
    wald_test,
)
from .simulate import (
    CovariateGen,
    EventDist,
    ScenarioConfig,
    ScenarioSummary,
    generate_dataset,
    reproduce_tables,
    run_scenario,
    scenario_from_json,
)

__version__ = "0.1.0"
