"""Dense CG with bit-flip fault injection, plus iso-metric machine models.

The package has two halves that meet in the energy analysis:

* solvers: deterministic dense Conjugate Gradient and a self-stabilizing
  variant that survives seeded silent data corruption injected into the
  matrix-vector product;
* models: roofline bounds, static-power regression, frequency-scaling
  factors, iso-performance / iso-power / iso-capacity cluster matching,
  reliable+unreliable hybrid composition, and energy-to-solution curves
  with their break-even degradation.

``import isocg`` is cheap: it loads no submodule and no numpy.  Each public
name loads the submodule that defines it on first use (PEP 562), and so does
each submodule name, as in ``isocg.linalg``.  The command line
(``isocg.cli``) imports every submodule when it loads.

``_EXPORTS`` below is the one list of public names: each submodule takes its
``__all__`` from it, so a new public name is added there and nowhere else.
"""

import importlib

__version__ = "0.1.0"

# Each submodule with its public names, in the order of its ``__all__``.
_EXPORTS = {
    "errors": ("IsocgError", "DimensionMismatchError", "InvalidSpectrumError",
               "SolverDivergedError", "InsufficientDataError", "SampleSetError",
               "UnknownMachineError", "InfeasibleError", "NoBreakEvenError"),
    "linalg": ("PreparedMatrix", "gemv", "dot", "gen_spd_diag_dominant", "gen_spd_spectrum"),
    "faults": ("BIT_DOMAINS", "FaultPolicy", "FaultEvent", "FaultInjector", "float_to_bits",
               "bits_to_float", "flip_bits", "events_to_jsonl"),
    "solvers": ("SolveConfig", "SolveReport", "cg_solve", "sscg_solve", "load_system"),
    "machine": ("DOUBLE_GEMV_INTENSITY", "MachineSpec", "PerfSample", "StaticPowerFit",
                "ScalingFactors", "SampleSet", "roofline_gflops", "static_power_fit",
                "scaling_factors", "gflops_per_watt", "max_onchip_n", "load_sampleset",
                "save_sampleset", "default_data_dir", "bundled_sampleset"),
    "iso": ("ISO_PERFORMANCE", "ISO_POWER", "ISO_CAPACITY", "HybridSystem", "IsoReport",
            "EtsPoint", "iso_capacity_clusters", "hybrid_gflops", "hybrid_watts",
            "solve_hybrid_for_mode", "match", "ets", "ets_curve", "breakeven_degradation",
            "EtsAnalysis", "ets_analysis"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
        globals()[name] = value  # later lookups are plain attribute hits
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
