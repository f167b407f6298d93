"""Dense CG with bit-flip fault injection, plus iso-metric machine models.

The package has two halves that meet in the energy analysis:

* solvers: deterministic dense Conjugate Gradient and a self-stabilizing
  variant that survives seeded silent data corruption injected into the
  matrix-vector product;
* models: roofline bounds, static-power regression, frequency-scaling
  factors, iso-performance / iso-power / iso-capacity cluster matching,
  reliable+unreliable hybrid composition, and energy-to-solution curves
  with their break-even degradation.
"""

from .errors import (
    DimensionMismatchError,
    InfeasibleError,
    InsufficientDataError,
    InvalidSpectrumError,
    IsocgError,
    NoBreakEvenError,
    SampleSetError,
    SolverDivergedError,
    UnknownMachineError,
)
from .faults import (
    BIT_DOMAINS,
    FaultEvent,
    FaultInjector,
    FaultPolicy,
    bits_to_float,
    events_to_jsonl,
    flip_bits,
    float_to_bits,
)
from .iso import (
    ISO_CAPACITY,
    ISO_PERFORMANCE,
    ISO_POWER,
    EtsPoint,
    HybridSystem,
    IsoReport,
    breakeven_degradation,
    ets,
    ets_curve,
    hybrid_gflops,
    hybrid_report,
    hybrid_watts,
    iso_capacity_clusters,
    iso_performance_clusters,
    iso_power_clusters,
    match,
    solve_hybrid_for_mode,
)
from .linalg import dot, gemv, gen_spd_diag_dominant, gen_spd_spectrum
from .machine import (
    DOUBLE_GEMV_INTENSITY,
    MachineSpec,
    PerfSample,
    SampleSet,
    ScalingFactors,
    StaticPowerFit,
    bundled_sampleset,
    default_data_dir,
    gflops_per_watt,
    load_sampleset,
    max_onchip_n,
    roofline_gflops,
    save_sampleset,
    scaling_factors,
    static_power_fit,
)
from .solvers import SolveConfig, SolveReport, cg_solve, sscg_solve

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "IsocgError",
    "DimensionMismatchError",
    "InvalidSpectrumError",
    "SolverDivergedError",
    "InsufficientDataError",
    "SampleSetError",
    "UnknownMachineError",
    "InfeasibleError",
    "NoBreakEvenError",
    # linalg
    "gemv",
    "dot",
    "gen_spd_diag_dominant",
    "gen_spd_spectrum",
    # faults
    "BIT_DOMAINS",
    "FaultPolicy",
    "FaultEvent",
    "FaultInjector",
    "flip_bits",
    "float_to_bits",
    "bits_to_float",
    "events_to_jsonl",
    # solvers
    "SolveConfig",
    "SolveReport",
    "cg_solve",
    "sscg_solve",
    # machine models
    "DOUBLE_GEMV_INTENSITY",
    "MachineSpec",
    "PerfSample",
    "SampleSet",
    "StaticPowerFit",
    "ScalingFactors",
    "roofline_gflops",
    "static_power_fit",
    "scaling_factors",
    "gflops_per_watt",
    "max_onchip_n",
    "load_sampleset",
    "save_sampleset",
    "default_data_dir",
    "bundled_sampleset",
    # iso analysis
    "ISO_PERFORMANCE",
    "ISO_POWER",
    "ISO_CAPACITY",
    "HybridSystem",
    "IsoReport",
    "EtsPoint",
    "iso_performance_clusters",
    "iso_power_clusters",
    "iso_capacity_clusters",
    "hybrid_gflops",
    "hybrid_watts",
    "hybrid_report",
    "solve_hybrid_for_mode",
    "match",
    "ets",
    "ets_curve",
    "breakeven_degradation",
]
