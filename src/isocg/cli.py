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

import numpy as np

from . import iso as iso_mod
from .errors import IsocgError, SolverDivergedError, UnknownMachineError
from .faults import BIT_DOMAINS, FaultPolicy
from .linalg import PreparedMatrix, gemv, gen_spd_diag_dominant
from .machine import PROBLEM_CLASSES, default_data_dir, load_sampleset
from .solvers import SolveConfig, cg_solve, load_system, sscg_solve

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

# Most points an ets --degradation range may hold; the default has 41.
_MAX_DEGRADATION_POINTS = 10_000

# Least peak memory of loading a --matrix file, per byte of the file: its bytes
# and its decoded text coexist, and the text takes at least half the bytes'
# room (two-byte UTF-8 characters below U+0100 decode to one byte each).
_LOAD_PEAK_PER_FILE_BYTE = 1.5


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


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(need: int, code: int, what: str) -> None:
    """Fail with ``code`` when ``need`` bytes exceed physical memory; ``what`` opens the message."""
    memory = _physical_memory()
    if need > memory:
        raise _CliError(code, f"{what}, more than the {memory} bytes of physical memory")


def _build_problem(args) -> tuple[PreparedMatrix, np.ndarray]:
    """The system to solve, with A prepared once for the right-hand side and every solve."""
    if args.matrix is not None:
        try:
            # Refused before reading, when the file's size alone predicts too high a load peak.
            size = os.path.getsize(args.matrix)
            need = math.ceil(_LOAD_PEAK_PER_FILE_BYTE * size)
            _check_memory(need, EXIT_DATAERR,
                          f"{args.matrix}: loading its {size} bytes needs at least {need} bytes")
            a, b = load_system(args.matrix)
        except OSError as exc:
            raise _CliError(EXIT_NOINPUT, f"cannot read {args.matrix}: {exc}") from exc
        if args.size is not None and args.size != a.shape[0]:
            raise _CliError(
                EXIT_DATAERR,
                f"--size {args.size} does not match the {a.shape[0]}x{a.shape[1]} system in {args.matrix}",
            )
        return a, b
    a = PreparedMatrix(gen_spd_diag_dominant(args.size, args.seed))
    # Deterministic right-hand side with known solution x = 1.
    return a, gemv(a, np.ones(args.size))


def _check_size(args) -> None:
    """Reject a --size below 1, or one whose A alone would not fit in physical memory."""
    if args.size < 1:
        args.parser.error(f"--size must be >= 1, got {args.size}")
    need = 8 * args.size**2
    _check_memory(need, EXIT_USAGE, f"--size {args.size} needs {need} bytes for A")


def _cmd_solve(args) -> int:
    """solve runs plain CG once.  solve-ss runs fault-free SS-CG as the baseline
    and, unless --fault-rate is 0, SS-CG again under injection."""
    if args.size is None and args.matrix is None:
        args.parser.error("one of --size or --matrix is required")
    if args.matrix is None:
        _check_size(args)
    ss = args.command == "solve-ss"
    policy = None
    if ss:
        policy = _settings(
            FaultPolicy,
            rate=args.fault_rate,
            flips_per_event=args.flips,
            bit_domain=args.fault_bits.replace("-", "_"),
            seed=args.fault_seed,
        )
    schedule = {"ss_period": args.ss_period} if ss else {}
    cfg = _settings(SolveConfig, tol=args.tol, max_iter=args.max_iter, **schedule)
    a, b = _build_problem(args)
    try:
        x, baseline = (sscg_solve if ss else cg_solve)(a, b, cfg)
        report = baseline
        if ss and policy.rate != 0:  # without faults the run would repeat the baseline bit for bit
            x, report = sscg_solve(a, b, dataclasses.replace(cfg, fault_policy=policy))
    except SolverDivergedError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    name = "sscg" if ss else "cg"
    final = report.relative_residuals[-1] if report.relative_residuals else 0.0
    overhead = None
    if ss and baseline.converged and baseline.iterations > 0:
        overhead = 100.0 * (report.iterations - baseline.iterations) / baseline.iterations
    if args.json:
        doc = {
            "solver": name,
            "n": b.size,
            "tol": args.tol,
            "converged": report.converged,
            "iterations": report.iterations,
            "relative_residual": final,
            "relative_residuals": report.relative_residuals,
            "flops": report.flops,
            "solution": [float(v) for v in x],
        }
        if ss:
            doc.update(
                ss_period=args.ss_period,
                fault_rate=args.fault_rate,
                fault_bits=args.fault_bits,
                flips_per_event=args.flips,
                fault_seed=args.fault_seed,
                fault_events=[e.to_dict() for e in report.fault_events],
                rng_algorithm=report.rng_algorithm,
                baseline_iterations=baseline.iterations,
                overhead_percent=overhead,
            )
        _emit_json(doc)
    else:
        print(f"solver: {name}")
        print(f"n: {b.size}")
        print(f"converged: {'yes' if report.converged else 'no'}")
        print(f"iterations: {report.iterations}")
        print(f"relative residual: {final:.6e}")
        print(f"flops: {report.flops}")
        if report.fault_events or report.rng_algorithm:
            print(f"fault events: {len(report.fault_events)}")
        if b.size <= 8:
            print("solution: [" + ", ".join(_fmt(v) for v in x) + "]")
        if overhead is not None:
            print(f"iteration overhead: {overhead:.1f}% (fault-free baseline: {baseline.iterations})")
    return EXIT_OK if report.converged else EXIT_NONCONVERGENCE


def _address(form: str, *, bare: bool):
    """An argparse type: a machine address in ``form``, e.g. ``machine:cores:freq``, as its
    name and typed fields.  With ``bare``, a lone name gives ``None`` for every field."""
    fields = form.split(":")[1:]

    def parse(value: str):
        name, *parts = value.split(":")
        if bare and not parts:
            return (name, *(None for _ in fields))
        if len(parts) != len(fields):
            raise argparse.ArgumentTypeError(
                f"expected {'machine or ' if bare else ''}{form}, got {value!r}")
        try:
            return (name, *(_ADDRESS_FIELDS[f](part) for f, part in zip(fields, parts)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {'/'.join(fields)} in {value!r}") from None

    return parse


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


def _match_args(args, problem_class: str):
    """``--ref`` and ``--target`` looked up in the data set, as the operating
    points (``None`` for a bare name) and LLC sizes :func:`iso.match` takes."""
    try:
        sset = load_sampleset(args.data or default_data_dir())
    except OSError as exc:
        raise _CliError(EXIT_NOINPUT, f"cannot read data set: {exc}") from exc
    (ref_name, cores, ref_freq), (tgt_name, tgt_freq) = args.ref, args.target
    ref_spec, tgt_spec = sset.spec(ref_name), sset.spec(tgt_name)
    ref = None if ref_freq is None else sset.sample(ref_name, cores, ref_freq, problem_class)
    target = None
    if tgt_freq is not None:
        target = sset.sample(tgt_name, tgt_spec.cores_per_unit, tgt_freq, problem_class)
    llc = {"ref_llc_bytes": ref_spec.llc_bytes, "target_llc_bytes": tgt_spec.llc_bytes}
    return ref, target, llc


def _cmd_iso(args) -> int:
    if args.ss_fraction is not None and not args.hybrid:
        args.parser.error("--ss-fraction requires --hybrid")
    alpha = (args.ss_fraction or iso_mod.HybridSystem.ss_fraction) if args.hybrid else 0.0
    # Only the plain capacity query can do without operating points.
    bare = args.ref[2] is None or args.target[1] is None
    if bare and (args.hybrid or args.mode != "capacity"):
        flag = "--hybrid" if args.hybrid else "--mode perf/power"
        args.parser.error(f"{flag} requires --ref machine:cores:freq and --target machine:freq")
    ref, target, llc = _match_args(args, args.problem_class)
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


def _fraction(value: str) -> float:
    """The reliable share alpha, which must lie in (0, 1)."""
    try:
        alpha = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {value!r}") from None
    if not 0.0 < alpha < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {value!r}")
    return alpha


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
    _check_size(args)
    ref_sample, tgt_sample, llc = _match_args(args, "on_chip")
    # Work for the modelled problem: a fault-free solve fixes the iteration count.
    a, b = _build_problem(args)
    _, solve_report = cg_solve(a, b, SolveConfig())
    report, breakeven, curve = iso_mod.ets_analysis(
        _MODE_FLAGS[args.mode.removeprefix("iso-")], ref_sample, tgt_sample, args.degradation,
        solve_report.flops, **llc, ss_fraction=args.ss_fraction,
    )

    if args.json:
        _emit_json(
            {
                "mode": report.mode,
                "cluster_count": report.cluster_count,
                "flops_total": solve_report.flops,
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
    sub.add_argument("--tol", type=float, default=SolveConfig.tol, help="relative residual threshold")
    sub.add_argument("--max-iter", type=int, default=None, help="iteration cap (default 50n)")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    if ss:
        sub.add_argument("--ss-period", type=int, default=SolveConfig.ss_period,
                         help="iterations between reliable corrections "
                              f"(default {SolveConfig.ss_period})")
        sub.add_argument("--fault-rate", type=float, default=0.0,
                         help="fault probability per injectable product (default 0)")
        sub.add_argument("--fault-bits", default=FaultPolicy.bit_domain.replace("_", "-"),
                         choices=sorted(d.replace("_", "-") for d in BIT_DOMAINS),
                         help="bit region eligible for flips")
        sub.add_argument("--flips", type=int, default=FaultPolicy.flips_per_event,
                         help="bits flipped per event")
        sub.add_argument("--fault-seed", type=_seed, default=FaultPolicy.seed, help="injector RNG seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="isocg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = subs.add_parser("solve", help="run plain CG")
    _add_solve_flags(solve, ss=False)
    solve.set_defaults(func=_cmd_solve, parser=solve)

    solve_ss = subs.add_parser("solve-ss", help="run self-stabilizing CG with fault injection")
    _add_solve_flags(solve_ss, ss=True)
    solve_ss.set_defaults(func=_cmd_solve, parser=solve_ss)

    iso = subs.add_parser("iso", help="iso-metric cluster matching")
    iso.add_argument("--mode", choices=list(_MODE_FLAGS), required=True)
    iso.add_argument("--ref", type=_address("machine:cores:freq", bare=True), required=True,
                     help="reference, machine[:cores:freq]")
    iso.add_argument("--target", type=_address("machine:freq", bare=True), required=True,
                     help="target cluster, machine[:freq]")
    iso.add_argument("--data", default=None, help="samples.csv or data directory")
    iso.add_argument("--problem-class", choices=list(PROBLEM_CLASSES), default="on_chip")
    iso.add_argument("--hybrid", action="store_true",
                     help="compose reliable ref cluster + n unreliable target clusters")
    iso.add_argument("--ss-fraction", type=_fraction, default=None,
                     help="share of time on the reliable cluster "
                          f"(default {iso_mod.HybridSystem.ss_fraction})")
    fmt = iso.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    iso.set_defaults(func=_cmd_iso, parser=iso)

    ets = subs.add_parser("ets", help="energy-to-solution vs degradation")
    ets.add_argument("--mode", choices=[f"iso-{flag}" for flag in _MODE_FLAGS], default="iso-perf")
    ets.add_argument("--degradation", type=_parse_degradation, default=_parse_degradation("0:400:10"),
                     help="percent range start:stop:step (default 0:400:10)")
    ets.add_argument("--data", default=None, help="samples.csv or data directory")
    ets.add_argument("--ref", type=_address("machine:cores:freq", bare=False), default="a15:4:1.6",
                     help="reliable reference, machine:cores:freq")
    ets.add_argument("--target", type=_address("machine:freq", bare=False), default="a7:0.5",
                     help="unreliable cluster, machine:freq")
    ets.add_argument("--ss-fraction", type=_fraction, default=iso_mod.HybridSystem.ss_fraction)
    ets.add_argument("--size", type=int, default=512, help="modelled problem order (default 512)")
    ets.add_argument("--seed", type=_seed, default=1, help="problem generator seed (default 1)")
    ets.add_argument("--json", action="store_true")
    ets.set_defaults(func=_cmd_ets, parser=ets, matrix=None)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"isocg: {exc}", file=sys.stderr)
        return exc.code
    except IsocgError as exc:
        print(f"isocg: {exc}", file=sys.stderr)
        if isinstance(exc, UnknownMachineError) and exc.available:
            print("available: " + ", ".join(exc.available), file=sys.stderr)
        return EXIT_DATAERR


def main() -> None:
    # A closed stdout ends the process by SIGPIPE, as it does other Unix filters.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())
