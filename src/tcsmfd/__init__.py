"""Tradable credit schemes on a trip-based MFD traffic model.

The package couples a credit market between regulator and travelers with
an aggregate (MFD) within-day traffic model: travelers choose between car
and public transport through a logit model whose car disutility includes
both congested travel time and the market value of the credits a car trip
consumes.  The equilibrium solver finds mode shares and the credit price
jointly; on top of it sit charge sweeps, a dichotomy search for optimal
charges, and stability / uniqueness diagnostics.
"""

__version__ = "0.1.0"

from .analysis import (
    EigResult,
    StabilityReport,
    UniquenessReport,
    eig_values,
    histogram_rows,
    stability_check,
    stability_jacobian,
    uniqueness_check,
)
from .equilibrium import (
    EquilibriumReport,
    ModalState,
    MsaReport,
    build_qp,
    equilibrium_solve,
    j_value,
    logit_choice,
    logit_costs,
    logit_gradient,
    msa_solve,
)
from .gradients import GradientMatrix, grad_speed, travel_time_gradient
from .objectives import (
    Aggregates,
    CapInactiveError,
    EmissionModel,
    GroupGains,
    OptimizeResult,
    OptimizeStep,
    SweepRow,
    compute_aggregates,
    emission_charge_gradient,
    emission_per_distance,
    emission_per_distance_dv,
    group_gains,
    optimize_charge,
    sweep_charges,
    total_emission,
    total_travel_time,
    ttt_charge_gradient,
)
from .qp import QpSolution, project_box_halfspace, solve_qp
from .scenario import (
    GeneratorSpec,
    Group,
    MfdCurve,
    PRESETS,
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
    "Aggregates",
    "CapInactiveError",
    "EigResult",
    "EmissionModel",
    "EquilibriumReport",
    "GeneratorSpec",
    "GradientMatrix",
    "Group",
    "HorizonError",
    "MfdCurve",
    "GroupGains",
    "ModalState",
    "MsaReport",
    "OptimizeResult",
    "OptimizeStep",
    "PRESETS",
    "QpSolution",
    "Scenario",
    "ScenarioError",
    "SimResult",
    "StabilityReport",
    "SweepRow",
    "TcsParams",
    "UniquenessReport",
    "build_qp",
    "compute_aggregates",
    "eig_values",
    "emission_charge_gradient",
    "emission_per_distance",
    "emission_per_distance_dv",
    "equilibrium_solve",
    "generate_synthetic",
    "grad_speed",
    "group_gains",
    "histogram_rows",
    "j_value",
    "load_scenario",
    "logit_choice",
    "logit_costs",
    "logit_gradient",
    "msa_solve",
    "optimize_charge",
    "preset_spec",
    "project_box_halfspace",
    "save_scenario",
    "simulate",
    "solve_qp",
    "stability_check",
    "stability_jacobian",
    "sweep_charges",
    "total_emission",
    "total_travel_time",
    "travel_time_gradient",
    "ttt_charge_gradient",
    "uniqueness_check",
]
