"""Tradable credit schemes on a trip-based MFD traffic model.

The package couples a credit market between regulator and travelers with
an aggregate (MFD) within-day traffic model: travelers choose between car
and public transport through a logit model whose car disutility includes
both congested travel time and the market value of the credits a car trip
consumes.  The equilibrium solver finds mode shares and the credit price
jointly; on top of it sit charge sweeps, a safeguarded secant search for
optimal charges, and stability / uniqueness diagnostics.
"""

__version__ = "0.1.0"

from .analysis import (
    EigResult,
    StabilityReport,
    UniquenessReport,
    eig_values,
    histogram_rows,
    stability_check,
    uniqueness_check,
)
from .equilibrium import (
    EquilibriumReport,
    ModalState,
    MsaReport,
    build_qp,
    equilibrium_solve,
    logit_choice,
    msa_solve,
)
from .gradients import GradientMatrix, travel_time_gradient
from .objectives import (
    GroupGains,
    OptimizeResult,
    OptimizeStep,
    SweepRow,
    group_gains,
    optimize_charge,
    sweep_charges,
    total_emission,
    total_travel_time,
)
from .qp import QpSolution, solve_qp
from .scenario import (
    GeneratorSpec,
    MfdCurve,
    Scenario,
    ScenarioError,
    TcsParams,
    generate_synthetic,
    load_scenario,
    preset_spec,
    save_scenario,
)
from .simulator import HorizonError, SimResult, simulate

__all__ = [
    "__version__",
    "EigResult",
    "EquilibriumReport",
    "GeneratorSpec",
    "GradientMatrix",
    "HorizonError",
    "MfdCurve",
    "GroupGains",
    "ModalState",
    "MsaReport",
    "OptimizeResult",
    "OptimizeStep",
    "QpSolution",
    "Scenario",
    "ScenarioError",
    "SimResult",
    "StabilityReport",
    "SweepRow",
    "TcsParams",
    "UniquenessReport",
    "build_qp",
    "eig_values",
    "equilibrium_solve",
    "generate_synthetic",
    "group_gains",
    "histogram_rows",
    "load_scenario",
    "logit_choice",
    "msa_solve",
    "optimize_charge",
    "preset_spec",
    "save_scenario",
    "simulate",
    "solve_qp",
    "stability_check",
    "sweep_charges",
    "total_emission",
    "total_travel_time",
    "travel_time_gradient",
    "uniqueness_check",
]
