"""Command-line front end.

Subcommands::

    isocg solve     dense CG on a generated or file-backed SPD system
    isocg solve-ss  self-stabilizing CG under seeded bit-flip injection
    isocg iso       iso-performance / iso-power / iso-capacity matching
    isocg ets       energy-to-solution curves and the break-even point

Exit codes: 0 success, 2 solver did not converge, 64 usage error,
65 bad or inconsistent data, 66 missing input file.  ``--json`` and
``--csv`` outputs are byte-stable for identical invocations.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import signal
import sys
from pathlib import Path

import numpy as np

from . import iso as iso_mod
from .errors import IsocgError, NoBreakEvenError, SolverDivergedError, UnknownMachineError
from .faults import BIT_DOMAINS, FaultPolicy
from .linalg import PreparedMatrix, as_square_matrix, as_vector, gemv, gen_spd_diag_dominant
from .machine import PROBLEM_CLASSES, default_data_dir, load_sampleset
from .solvers import SolveConfig, cg_solve, sscg_solve

EXIT_OK = 0
EXIT_NONCONVERGENCE = 2
EXIT_USAGE = 64
EXIT_DATAERR = 65
EXIT_NOINPUT = 66

# iso --mode takes these flags; ets --mode takes them with an "iso-" prefix.
_MODE_FLAGS = {
    "perf": iso_mod.ISO_PERFORMANCE,
    "power": iso_mod.ISO_POWER,
    "capacity": iso_mod.ISO_CAPACITY,
}

# Columns of iso --csv: mode, then the report's numbers and ratios, empty where absent.
_ISO_CSV_COLUMNS = ("mode", "cluster_count", "achieved_gflops", "achieved_watts", "perf_vs_ref",
                    "power_vs_ref", "ref_perf_vs_target", "ref_power_vs_target", "efficiency_vs_ref")

# Types of the fields of a machine address, after the machine name.
_ADDRESS_FIELDS = {"cores": int, "freq": float}

# Largest relative asymmetry max|A - Aᵀ| / max|A| of a --matrix file.
# gen_spd_spectrum leaves 6e-17 to 1.3e-16 at n = 8..2048.
_SYMMETRY_TOL = 1e-10

# Most points an ets --degradation range may hold; the default has 41.
_MAX_DEGRADATION_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _settings(make, **fields):
    """``make(**fields)``, with its ``ValueError`` turned into a usage error (exit 64)."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc


def _emit_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _fmt(value: float) -> str:
    return repr(float(value))


def _load_system(path: str) -> tuple[PreparedMatrix, np.ndarray]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _CliError(EXIT_NOINPUT, f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"))  # UnicodeDecodeError is a ValueError
        a = PreparedMatrix(as_square_matrix(doc["A"]))
        b = as_vector(doc["b"]) if "b" in doc else None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _CliError(EXIT_DATAERR, f"bad system file {path}: {exc}") from exc
    # JSON admits Infinity and NaN, which would only surface later as a diverged solve.
    if not np.isfinite(a.cols).all() or (b is not None and not np.isfinite(b).all()):
        raise _CliError(EXIT_DATAERR, f"bad system file {path}: non-finite entries")
    asymmetry = np.abs(a.cols - a.cols.T).max()
    if asymmetry > _SYMMETRY_TOL * np.abs(a.cols).max():
        raise _CliError(
            EXIT_DATAERR,
            f"bad system file {path}: A is not symmetric "
            f"(max|A - A^T| = {asymmetry:.3g} exceeds {_SYMMETRY_TOL:g} * max|A|)",
        )
    if b is None:
        b = gemv(a, np.ones(a.shape[0]))
    if b.size != a.shape[0]:
        raise _CliError(
            EXIT_DATAERR, f"bad system file {path}: A is {a.shape[0]}x{a.shape[1]} but b has length {b.size}"
        )
    return a, b


def _build_problem(args) -> tuple[PreparedMatrix, np.ndarray]:
    """The system to solve, with A prepared once for the right-hand side and every solve."""
    if args.matrix is not None:
        a, b = _load_system(args.matrix)
        if args.size is not None and args.size != a.shape[0]:
            raise _CliError(
                EXIT_DATAERR,
                f"--size {args.size} does not match the {a.shape[0]}x{a.shape[1]} system in {args.matrix}",
            )
        return a, b
    a = PreparedMatrix(gen_spd_diag_dominant(args.size, args.seed))
    # Deterministic right-hand side with known solution x = 1.
    return a, gemv(a, np.ones(args.size))


def _print_solve_report(name, n, report, x) -> None:
    final = report.relative_residuals[-1] if report.relative_residuals else 0.0
    print(f"solver: {name}")
    print(f"n: {n}")
    print(f"converged: {'yes' if report.converged else 'no'}")
    print(f"iterations: {report.iterations}")
    print(f"relative residual: {final:.6e}")
    print(f"flops: {report.flops}")
    if report.fault_events or report.rng_algorithm:
        print(f"fault events: {len(report.fault_events)}")
    if n <= 8:
        print("solution: [" + ", ".join(_fmt(v) for v in x) + "]")


def _solve_json_doc(name, n, args, report, x) -> dict:
    final = report.relative_residuals[-1] if report.relative_residuals else 0.0
    return {
        "solver": name,
        "n": n,
        "tol": args.tol,
        "converged": report.converged,
        "iterations": report.iterations,
        "relative_residual": final,
        "relative_residuals": report.relative_residuals,
        "flops": report.flops,
        "solution": [float(v) for v in x],
    }


def _check_size(args) -> None:
    """Reject a --size below 1, or one whose A alone would not fit in physical memory."""
    if args.size < 1:
        args.parser.error(f"--size must be >= 1, got {args.size}")
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * args.size**2 > memory:
        raise _CliError(
            EXIT_USAGE,
            f"--size {args.size} needs {8 * args.size**2} bytes for A, "
            f"more than the {memory} bytes of physical memory",
        )


def _require_problem_source(args) -> None:
    if args.size is None and args.matrix is None:
        args.parser.error("one of --size or --matrix is required")
    if args.matrix is None:
        _check_size(args)


def _cmd_solve(args) -> int:
    _require_problem_source(args)
    cfg = _settings(SolveConfig, tol=args.tol, max_iter=args.max_iter)
    a, b = _build_problem(args)
    try:
        x, report = cg_solve(a, b, cfg)
    except SolverDivergedError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    if args.json:
        _emit_json(_solve_json_doc("cg", b.size, args, report, x))
    else:
        _print_solve_report("cg", b.size, report, x)
    return EXIT_OK if report.converged else EXIT_NONCONVERGENCE


def _cmd_solve_ss(args) -> int:
    _require_problem_source(args)
    policy = None
    if args.fault_rate != 0:  # a negative or NaN rate reaches FaultPolicy's check
        policy = _settings(
            FaultPolicy,
            rate=args.fault_rate,
            flips_per_event=args.flips,
            bit_domain=args.fault_bits.replace("-", "_"),
            seed=args.fault_seed,
        )
    cfg = _settings(SolveConfig, tol=args.tol, max_iter=args.max_iter, ss_period=args.ss_period)
    a, b = _build_problem(args)
    try:
        x, baseline = sscg_solve(a, b, cfg)
        report = baseline
        if policy is not None:  # without faults the run would repeat the baseline bit for bit
            x, report = sscg_solve(a, b, dataclasses.replace(cfg, fault_policy=policy))
    except SolverDivergedError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    overhead = None
    if baseline.converged and baseline.iterations > 0:
        overhead = 100.0 * (report.iterations - baseline.iterations) / baseline.iterations
    if args.json:
        doc = _solve_json_doc("sscg", b.size, args, report, x)
        doc.update(
            {
                "ss_period": args.ss_period,
                "fault_rate": args.fault_rate,
                "fault_bits": args.fault_bits,
                "flips_per_event": args.flips,
                "fault_seed": args.fault_seed,
                "fault_events": [e.to_dict() for e in report.fault_events],
                "rng_algorithm": report.rng_algorithm,
                "baseline_iterations": baseline.iterations,
                "overhead_percent": overhead,
            }
        )
        _emit_json(doc)
    else:
        _print_solve_report("sscg", b.size, report, x)
        if overhead is not None:
            print(f"iteration overhead: {overhead:.1f}% (fault-free baseline: {baseline.iterations})")
    return EXIT_OK if report.converged else EXIT_NONCONVERGENCE


def _parse_address(value: str, parser, form: str, *, bare: bool):
    """The machine name and typed fields of ``value`` written in ``form``, e.g.
    ``machine:cores:freq``.  With ``bare``, a lone name is also accepted and
    gives ``None`` for every field."""
    name, *parts = value.split(":")
    fields = form.split(":")[1:]
    if bare and not parts:
        return (name, *(None for _ in fields))
    if len(parts) != len(fields):
        parser.error(f"expected {'machine or ' if bare else ''}{form}, got {value!r}")
    try:
        return (name, *(_ADDRESS_FIELDS[f](part) for f, part in zip(fields, parts)))
    except ValueError:
        parser.error(f"bad {'/'.join(fields)} in {value!r}")


def _load_data(args):
    path = Path(args.data) if args.data else default_data_dir()
    try:
        return load_sampleset(path)
    except OSError as exc:
        raise _CliError(EXIT_NOINPUT, f"cannot read data set: {exc}") from exc


def _print_iso_report(report: iso_mod.IsoReport) -> None:
    print(f"mode: {report.mode}")
    print(f"clusters: {report.cluster_count:.4f}")
    if report.achieved_gflops is not None:
        print(f"achieved GFLOPS: {report.achieved_gflops:.4f}")
    if report.achieved_watts is not None:
        print(f"achieved W: {report.achieved_watts:.4f}")
    for key in sorted(report.ratios):
        print(f"{key}: {report.ratios[key]:.4f}")


def _emit_iso_csv(report: iso_mod.IsoReport) -> None:
    row = {**dataclasses.asdict(report), **report.ratios}
    print(",".join(_ISO_CSV_COLUMNS))
    print(",".join([report.mode] + ["" if row.get(col) is None else _fmt(row[col])
                                    for col in _ISO_CSV_COLUMNS[1:]]))


def _match_args(args, problem_class: str, *, bare: bool):
    """``--ref`` and ``--target`` looked up in the data set, as the operating
    points (``None`` for a bare name) and LLC sizes :func:`iso.match` takes."""
    sset = _load_data(args)
    ref_name, cores, ref_freq = _parse_address(args.ref, args.parser, "machine:cores:freq",
                                               bare=bare)
    tgt_name, tgt_freq = _parse_address(args.target, args.parser, "machine:freq", bare=bare)
    ref_spec = sset.spec(ref_name)
    tgt_spec = sset.spec(tgt_name)
    ref = None if ref_freq is None else sset.sample(ref_name, cores, ref_freq, problem_class)
    target = None
    if tgt_freq is not None:
        target = sset.sample(tgt_name, tgt_spec.cores_per_unit, tgt_freq, problem_class)
    llc = {"ref_llc_bytes": ref_spec.llc_bytes, "target_llc_bytes": tgt_spec.llc_bytes}
    return ref, target, llc


def _ss_fraction(args) -> float:
    """The reliable share alpha: ``--ss-fraction``, in (0, 1), or 0.1 without it."""
    if args.ss_fraction is None:
        return 0.1
    if not 0.0 < args.ss_fraction < 1.0:
        args.parser.error(f"--ss-fraction must lie in (0, 1), got {args.ss_fraction}")
    return args.ss_fraction


def _cmd_iso(args) -> int:
    parser = args.parser
    if args.ss_fraction is not None and not args.hybrid:
        parser.error("--ss-fraction requires --hybrid")
    alpha = _ss_fraction(args) if args.hybrid else 0.0
    ref, target, llc = _match_args(args, args.problem_class, bare=True)
    # Only the plain capacity query can do without operating points.
    if ref is None or target is None:
        if args.hybrid:
            parser.error("--hybrid requires --ref machine:cores:freq and --target machine:freq")
        if args.mode != "capacity":
            parser.error("--mode perf/power requires --ref machine:cores:freq and --target machine:freq")
    report = iso_mod.match(_MODE_FLAGS[args.mode], ref, target, **llc, ss_fraction=alpha)
    if args.json:
        _emit_json(dataclasses.asdict(report))
    elif args.csv:
        _emit_iso_csv(report)
    else:
        _print_iso_report(report)
    return EXIT_OK


def _parse_degradation(value: str) -> list[float]:
    parts = value.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {value!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric range {value!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(f"range must be finite, got {value!r}")
    if start < 0 or stop < start or step <= 0:
        raise argparse.ArgumentTypeError(
            f"range must satisfy 0 <= start <= stop with step > 0, got {value!r}"
        )
    out = []
    d = start
    while d <= stop + 1e-9:
        # Also ends a range whose step is too small to move d at all.
        if len(out) == _MAX_DEGRADATION_POINTS:
            raise argparse.ArgumentTypeError(
                f"range {value!r} has more than {_MAX_DEGRADATION_POINTS} points"
            )
        out.append(round(d, 12))
        d += step
    return out


def _seed(value: str) -> int:
    """A seed for numpy's generators, which take non-negative integers only."""
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seeds must be integers >= 0, got {value!r}")
    return seed


def _cmd_ets(args) -> int:
    alpha = _ss_fraction(args)
    _check_size(args)
    ref_sample, tgt_sample, llc = _match_args(args, "on_chip", bare=False)
    report = iso_mod.match(_MODE_FLAGS[args.mode.removeprefix("iso-")], ref_sample, tgt_sample,
                           **llc, ss_fraction=alpha)
    hybrid = iso_mod.HybridSystem(ref_sample, tgt_sample, report.cluster_count, alpha)

    # Work for the modelled problem: a fault-free solve fixes the iteration count.
    a, b = _build_problem(args)
    _, solve_report = cg_solve(a, b, SolveConfig())
    flops_total = solve_report.flops

    percents = list(args.degradation)
    try:
        breakeven = iso_mod.breakeven_degradation(ref_sample, hybrid)
    except NoBreakEvenError:
        breakeven = None
    if breakeven is not None and not any(abs(p - 100.0 * breakeven) < 1e-9 for p in percents):
        percents = sorted(percents + [100.0 * breakeven])
    curve = iso_mod.ets_curve(ref_sample, hybrid, [p / 100.0 for p in percents], flops_total)

    if args.json:
        _emit_json(
            {
                "mode": report.mode,
                "cluster_count": report.cluster_count,
                "flops_total": flops_total,
                "problem_size": args.size,
                "iterations": solve_report.iterations,
                "reference": {"gflops": ref_sample.gflops, "watts": ref_sample.watts},
                "hybrid": {"gflops": report.achieved_gflops, "watts": report.achieved_watts},
                "breakeven_percent": None if breakeven is None else 100.0 * breakeven,
                "points": [
                    {
                        "degradation_percent": 100.0 * rp.degradation,
                        "ets_reference_joules": rp.ets_joules,
                        "ets_hybrid_joules": hp.ets_joules,
                    }
                    for rp, hp in curve
                ],
            }
        )
    else:
        print("degradation_percent,ets_reference_joules,ets_hybrid_joules")
        for rp, hp in curve:
            print(f"{_fmt(100.0 * rp.degradation)},{_fmt(rp.ets_joules)},{_fmt(hp.ets_joules)}")
    return EXIT_OK


def _add_solve_flags(sub, ss: bool) -> None:
    sub.add_argument("--size", type=int, default=None,
                     help="generate an SPD system of this order (with --matrix: expected order)")
    sub.add_argument("--matrix", default=None,
                     help="JSON file with fields A (square) and optional b")
    sub.add_argument("--seed", type=_seed, default=0, help="generator seed (default 0)")
    sub.add_argument("--tol", type=float, default=1.0e-8, help="relative residual threshold")
    sub.add_argument("--max-iter", type=int, default=None, help="iteration cap (default 50n)")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    if ss:
        sub.add_argument("--ss-period", type=int, default=10,
                         help="iterations between reliable corrections (default 10)")
        sub.add_argument("--fault-rate", type=float, default=0.0,
                         help="fault probability per injectable product (default 0)")
        sub.add_argument("--fault-bits", default="sign-mantissa",
                         choices=sorted(d.replace("_", "-") for d in BIT_DOMAINS),
                         help="bit region eligible for flips")
        sub.add_argument("--flips", type=int, default=1, help="bits flipped per event")
        sub.add_argument("--fault-seed", type=_seed, default=0, help="injector RNG seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="isocg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = subs.add_parser("solve", help="run plain CG")
    _add_solve_flags(solve, ss=False)
    solve.set_defaults(func=_cmd_solve)

    solve_ss = subs.add_parser("solve-ss", help="run self-stabilizing CG with fault injection")
    _add_solve_flags(solve_ss, ss=True)
    solve_ss.set_defaults(func=_cmd_solve_ss)

    iso = subs.add_parser("iso", help="iso-metric cluster matching")
    iso.add_argument("--mode", choices=list(_MODE_FLAGS), required=True)
    iso.add_argument("--ref", required=True, help="reference, machine[:cores:freq]")
    iso.add_argument("--target", required=True, help="target cluster, machine[:freq]")
    iso.add_argument("--data", default=None, help="samples.csv or data directory")
    iso.add_argument("--problem-class", choices=list(PROBLEM_CLASSES), default="on_chip")
    iso.add_argument("--hybrid", action="store_true",
                     help="compose reliable ref cluster + n unreliable target clusters")
    iso.add_argument("--ss-fraction", type=float, default=None,
                     help="fraction of work on the reliable cluster (default 0.1)")
    fmt = iso.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    iso.set_defaults(func=_cmd_iso)

    ets = subs.add_parser("ets", help="energy-to-solution vs degradation")
    ets.add_argument("--mode", choices=[f"iso-{flag}" for flag in _MODE_FLAGS],
                     default="iso-perf")
    ets.add_argument("--degradation", type=_parse_degradation, default=_parse_degradation("0:400:10"),
                     help="percent range start:stop:step (default 0:400:10)")
    ets.add_argument("--data", default=None, help="samples.csv or data directory")
    ets.add_argument("--ref", default="a15:4:1.6", help="reliable reference, machine:cores:freq")
    ets.add_argument("--target", default="a7:0.5", help="unreliable cluster, machine:freq")
    ets.add_argument("--ss-fraction", type=float, default=None)
    ets.add_argument("--size", type=int, default=512, help="modelled problem order (default 512)")
    ets.add_argument("--seed", type=_seed, default=1, help="problem generator seed (default 1)")
    ets.add_argument("--json", action="store_true")
    ets.set_defaults(func=_cmd_ets, matrix=None)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.parser = parser
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"isocg: {exc}", file=sys.stderr)
        return exc.code
    except UnknownMachineError as exc:
        print(f"isocg: {exc}", file=sys.stderr)
        if exc.available:
            print("available: " + ", ".join(exc.available), file=sys.stderr)
        return EXIT_DATAERR
    except IsocgError as exc:
        print(f"isocg: {exc}", file=sys.stderr)
        return EXIT_DATAERR


def main() -> None:
    # A closed stdout ends the process by SIGPIPE, as it does other Unix filters.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
