"""Reconstruction-error analysis and simulation for short-packet sensor links.

A correlated Gaussian field is sampled by M sensors and reconstructed at a
server over lossy finite-blocklength links.  The package provides the
closed-form time-averaged reconstruction error of the no-inference,
synchronous-inference and asynchronous-inference schemes, preference-region
thresholds over the spatial correlation, blocklength/time-shift adaptation,
and two independent Monte Carlo oracles that validate all of it.
"""

__version__ = "0.1.0"

from .blep import (
    LinkParams,
    blep_average,
    blep_average_simplified,
    blep_instantaneous,
    blep_segmented,
    dblep_dN,
)
from .errors import (
    BracketError,
    DecompositionError,
    DomainError,
    InvalidConfigError,
    InvalidQueryError,
    RegionDegenerateError,
    ScaleLimitError,
    UndefinedMsscError,
)
from .field import (
    CorrelationQuery,
    SensorField,
    SourceParams,
    correlation,
    load_field,
    mssc,
    place_sensors,
    sample_joint_gaussian,
    save_field,
)
from .mse import (
    BoundAxis,
    ClosedForm,
    MseValue,
    ReindexedField,
    Scheme,
    SchemeConfig,
    average_mse,
    bounds,
    dmse_asyn_deps,
    eps_star_asyn,
    mse_asyn_infer,
    mse_asyn_infer_approx,
    mse_no_infer,
    mse_syn_infer,
    mse_syn_infer_approx,
    mssc_weights,
    psi_values,
    reindex_by_correlation,
    upsilon,
)
from .optimize import (
    OptimizerConfig,
    OptResult,
    complexity_estimate,
    eval_F,
    eval_H,
    eval_J,
    exhaustive_search,
    expected_evaluation_count,
    jtsbo,
    optimize_blocklength_asyn,
    optimize_blocklength_syn,
    optimize_time_shift,
)
from .regions import (
    RegionReport,
    RegionThresholds,
    classify,
    exhaustive_region_oracle,
    region_report,
    threshold_asyn_over_syn,
    threshold_infer,
)
from .simulate import (
    SimReport,
    TransmissionEvent,
    empirical_gap_stats,
    expected_exp_gap_syn,
    expected_gap_asyn,
    expected_gap_syn,
    simulate_data_level,
    simulate_event_level,
)
