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
    build_dataset,
    read_panel_csv,
)
from .likelihood import (
    KernelRows,
    build_c_matrix,
    loglik_and_gradient,
    survival_from_increments,
)
from .estimate import (
    FitResult,
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
