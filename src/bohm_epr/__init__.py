"""Two-particle pilot-wave transport through a dual Stern-Gerlach bench.

The package simulates massive spin-singlet pairs guided through two
switchable analyzer magnets, under either instantaneous or
signal-delayed knowledge of the far setting, and estimates the CHSH
statistic together with the count-rate signatures of switch-induced
particle loss.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import ConfigError, EstimationError, IntegrationDiverged
from .experiment import (
    BellEstimate,
    CountRates,
    DEFAULT_SEED,
    Efficiency,
    ExperimentConfig,
    ExperimentReport,
    Normalization,
    PairTable,
    Survival,
    SwitchPolicy,
    TableRow,
    chsh,
    count_rates,
    detector_loss,
    kick_ratio,
    quiescent_config,
    report_json_dict,
    run_epr,
    setting_timelines,
    survival,
    table1_run,
    write_events_csv,
)
from .hooke import (
    HookeParams,
    SpringMode,
    SpringTrajectory,
    center_of_mass_spring,
    simulate_spring,
    spring_energy,
)
from .infomodel import (
    InformationMode,
    SettingTimelines,
    SideTimeline,
    effective_settings,
    static_timeline,
)
from .integrate import (
    IntegrationConfig,
    PairTrajectory,
    integrate_batch,
    integrate_pair,
    integrate_retiring,
    sample_initial,
    sign_outcome,
)
from .physconst import (
    ATOMIC_MASS,
    DerivedCoefficients,
    HBAR,
    LIGHT_SPEED,
    RawPhysicalInputs,
    SILVER,
    derive_coefficients,
)
from .velocity import (
    SettingPair,
    Side,
    TrajectoryState,
    aligned_velocity_pair,
    exponent_scale,
    stable_ratio,
    velocity_pair,
)

__all__ = [
    "ATOMIC_MASS",
    "BellEstimate",
    "ConfigError",
    "CountRates",
    "DEFAULT_SEED",
    "DerivedCoefficients",
    "Efficiency",
    "EstimationError",
    "ExperimentConfig",
    "ExperimentReport",
    "HBAR",
    "HookeParams",
    "InformationMode",
    "IntegrationConfig",
    "IntegrationDiverged",
    "LIGHT_SPEED",
    "Normalization",
    "PairTable",
    "PairTrajectory",
    "RawPhysicalInputs",
    "SILVER",
    "SettingPair",
    "SettingTimelines",
    "Side",
    "SideTimeline",
    "SpringMode",
    "SpringTrajectory",
    "Survival",
    "SwitchPolicy",
    "TableRow",
    "TrajectoryState",
    "aligned_velocity_pair",
    "center_of_mass_spring",
    "chsh",
    "count_rates",
    "derive_coefficients",
    "detector_loss",
    "effective_settings",
    "exponent_scale",
    "integrate_batch",
    "integrate_pair",
    "integrate_retiring",
    "kick_ratio",
    "quiescent_config",
    "report_json_dict",
    "run_epr",
    "sample_initial",
    "setting_timelines",
    "sign_outcome",
    "simulate_spring",
    "spring_energy",
    "stable_ratio",
    "static_timeline",
    "survival",
    "table1_run",
    "velocity_pair",
    "write_events_csv",
]
