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
    InvariantError,
    RegionDegenerateError,
    ScaleLimitError,
    UndefinedMsscError,
)
from .field import (
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
    Scheme,
    SchemeConfig,
    average_mse,
    bounds,
    eps_star_asyn,
    max_blocklength,
    reindex_by_correlation,
    scheme_weights,
    shift_count,
    upsilon,
)
from .optimize import (
    OptimizerConfig,
    OptResult,
    TraceRow,
    eval_F,
    eval_H,
    eval_J,
    exhaustive_search,
    expected_evaluation_count,
    jtsbo,
    optimize_blocklength,
    optimize_time_shift,
)
from .regions import (
    classify,
    exhaustive_region_oracle,
    threshold_asyn_over_syn,
    threshold_infer,
)
from .simulate import (
    SimReport,
    expected_gap_asyn,
    expected_gap_syn,
    simulate_data_level,
    simulate_event_level,
)
