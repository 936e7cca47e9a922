"""SINR and rate coverage of mmWave cellular networks that share
infrastructure and spectrum across operators.

Networks are modeled as superpositions of independent Poisson point
processes, one per operator subset, so partially shared deployments
are first-class.  Coverage comes from two interchangeable engines: a
numerical-integration engine (Rayleigh fading) and a Monte Carlo
simulator (any supported fading), plus estimators that recover densities
and the sharing fraction from real site data.
"""

from .analytic import (
    CoverageCurve,
    association_pdf,
    exclusion_radius,
    interference_kernel,
    laplace_general,
    los_measure,
    median_rate,
    nlos_measure,
    rate_coverage,
    sinr_coverage,
    truncation_radius,
)
from .channel import sample_gain, sinr_at_user
from .core import (
    BlockModel,
    ConfigError,
    DataError,
    FadingSpec,
    NAKAGAMI_LOGNORMAL_DEFAULT,
    NumericalError,
    OperatorSet,
    PRESETS,
    RAYLEIGH,
    REFERENCE_PRESET,
    SystemParams,
    TwoOpSpec,
    Window,
    fcd_scenario,
    fid_scenario,
    load_blocks_file,
    load_factor,
    load_params_file,
    params_from_dict,
    params_to_dict,
    rate_sinr_threshold,
)
from .estimation import (
    OverlapReport,
    SharingSummary,
    estimate_density,
    estimate_overlap_direct,
    estimate_overlap_indirect,
    merge_colocated,
    overlap_report,
    sharing_summary,
)
from .geometry import (
    Deployment,
    clustered_thinning,
    couple_two_operators,
    press,
    read_deployment_csv,
    sample_block_model,
    thin_blockage,
    write_deployment_csv,
)
from .montecarlo import (
    RunReport,
    SimPlan,
    SimResult,
    median_rate_from_samples,
    rate_curve_from_samples,
    run_simulation,
    sinr_curve_from_samples,
)

__version__ = "0.1.0"
