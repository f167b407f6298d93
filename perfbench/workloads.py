"""Workloads, their operations and correctness checks, and the layer probes.

Every workload is a closed loop: one client, one operation at a time.  A
pass is one run over the workload's fixed pool of operations, in an order
drawn from the run's seed, so the set of inputs in a pass (and every count
taken over it) is the same for every seed while the order is not.  Each
operation's digest is pinned in ``pins.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import isocg.cli
import isocg.iso as iso_mod
import isocg.linalg
import isocg.machine
import isocg.solvers
import oracles
import stats
from isocg.errors import IsocgError
from isocg.faults import FaultPolicy, events_to_jsonl

TOL = 1.0e-8
SS_PERIOD = 10
RATES = (0.0, 0.1, 0.5)
BIT_DOMAIN = "sign_mantissa"
MATRIX_SEED = 0
ORACLE_N_CLI = 512

# Operations that run before timing, so a cold first call stays out of the samples.
WARMUP_OPS = 1


@dataclass
class OpResult:
    key: str
    seconds: float
    failed: bool
    iterations: int = 0
    events: int = 0
    products: int | None = 0  # products inside solves; None when the output cannot show them
    overhead_pct: float | None = None
    digest: str | None = None
    notes: list[str] = field(default_factory=list)


def spectrum_setup_code(n: int) -> str:
    return (
        "import numpy as np, isocg\n"
        f"a = isocg.gen_spd_spectrum(np.logspace(0, 3, {n}), {MATRIX_SEED})\n"
        f"b = isocg.gemv(a, np.ones({n}))\n"
    )


class SpectrumWorkload:
    """``sscg_solve`` on the logspace(0, 3, n) spectrum, swept over fault rate x seed."""

    def __init__(self, name: str, n: int, fault_seeds: int) -> None:
        self.name = name
        self.n = n
        self.fault_seeds = fault_seeds
        self.setup_code = spectrum_setup_code(n)
        self.a = self.b = None
        self.gen_s = 0.0

    def pool(self) -> list[tuple[float, int]]:
        return [(rate, fs) for fs in range(self.fault_seeds) for rate in RATES]

    def ops(self, seed: int) -> list[tuple[float, int]]:
        return random.Random(seed).sample(self.pool(), len(self.pool()))

    @staticmethod
    def key(op) -> str:
        rate, fs = op
        return f"rate={rate},fs={fs}"

    def prepare(self) -> None:
        t0 = time.perf_counter()
        self.a = isocg.linalg.gen_spd_spectrum(np.logspace(0, 3, self.n), MATRIX_SEED)
        self.gen_s = time.perf_counter() - t0
        self.b = isocg.linalg.gemv(self.a, np.ones(self.n))

    def oracle_matrix(self) -> np.ndarray:
        return self.a

    def solve(self, op):
        rate, fs = op
        cfg = isocg.solvers.SolveConfig(
            tol=TOL, ss_period=SS_PERIOD,
            fault_policy=FaultPolicy(rate=rate, bit_domain=BIT_DOMAIN, seed=fs),
        )
        return isocg.solvers.sscg_solve(self.a, self.b, cfg)

    def run(self, op, pins: dict) -> OpResult:
        key = self.key(op)
        t0 = time.perf_counter()
        try:
            x, rep = self.solve(op)
        except IsocgError as exc:
            return OpResult(key, time.perf_counter() - t0, True, notes=[f"{key}: {exc}"])
        seconds = time.perf_counter() - t0
        res = OpResult(key, seconds, False, rep.iterations, len(rep.fault_events),
                       rep.flops // (2 * self.n * self.n))
        res.digest = stats.solve_digest(rep.iterations, rep.relative_residuals,
                                        events_to_jsonl(rep.fault_events))
        true_res = oracles.true_relative_residual(self.a, x, self.b)
        if not rep.converged:
            res.notes.append(f"{key}: did not converge")
        if not true_res <= TOL:
            res.notes.append(f"{key}: true residual {true_res:.3e} > tol {TOL:g}")
        if pins.get(key) != res.digest:
            res.notes.append(f"{key}: digest differs from the pinned one")
        res.failed = bool(res.notes)
        return res

    def pin(self) -> dict:
        out = {}
        for op in self.pool():
            res = self.run(op, {})  # with no pins, only the digest check can fail
            failures = [note for note in res.notes if "digest" not in note]
            if failures:
                raise RuntimeError(f"refusing to pin a failing operation: {failures}")
            out[res.key] = res.digest
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def overhead_pct(self, results: list[OpResult]) -> dict[float, float]:
        """Mean iteration excess of each rate over the rate-0 solve with the same fault seed."""
        iters = {r.key: r.iterations for r in results}
        out = {}
        for rate in RATES:
            excess = [
                100.0 * (iters[self.key((rate, fs))] - iters[self.key((0.0, fs))])
                / iters[self.key((0.0, fs))]
                for fs in range(self.fault_seeds)
            ]
            out[rate] = sum(excess) / len(excess)
        return out


CLI_FAULT_SEEDS = 4


def cli_commands(fs: int) -> list[tuple[str, str, list[str]]]:
    """(pin key, span name, argv) of the four commands of one round."""
    return [
        ("solve", "cli.solve", ["solve", "--size", "4096", "--json"]),
        (f"solve-ss:fs={fs}", "cli.solve_ss",
         ["solve-ss", "--size", "2048", "--fault-rate", "0.1", "--fault-seed", str(fs), "--json"]),
        ("iso", "cli.iso",
         ["iso", "--mode", "capacity", "--ref", "a15:4:1.6", "--target", "a7:0.5", "--hybrid", "--json"]),
        ("ets", "cli.ets", ["ets", "--mode", "iso-perf", "--json"]),
    ]


class CliWorkload:
    """One round of four ``isocg`` commands, each a fresh process."""

    name = "cli-mix"
    setup_code = "import isocg\n"

    def __init__(self) -> None:
        # Traced runs call ``isocg.cli.run`` in-process, so spans can be taken.
        self.in_process = False
        self.span = lambda name: contextlib.nullcontext()

    def pool(self) -> list[int]:
        return list(range(CLI_FAULT_SEEDS))

    def ops(self, seed: int) -> list[int]:
        return random.Random(seed).sample(self.pool(), len(self.pool()))

    @staticmethod
    def key(op) -> str:
        return f"round:fs={op}"

    def prepare(self) -> None:
        pass

    def oracle_matrix(self) -> np.ndarray:
        return isocg.linalg.gen_spd_diag_dominant(ORACLE_N_CLI, MATRIX_SEED)

    def _call(self, span: str, argv: list[str]) -> tuple[int, bytes]:
        """Run one command, as a fresh process or through ``isocg.cli.run``."""
        if not self.in_process:
            proc = subprocess.run([sys.executable, "-m", "isocg", *argv],
                                  capture_output=True, check=False)
            return proc.returncode, proc.stdout
        buf = io.StringIO()
        with self.span(span), contextlib.redirect_stdout(buf):
            try:
                code = isocg.cli.run(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, buf.getvalue().encode()

    def run(self, op, pins: dict) -> OpResult:
        commands = cli_commands(op)
        outputs = []
        t0 = time.perf_counter()
        for _, span, argv in commands:
            outputs.append(self._call(span, argv))
        res = OpResult(self.key(op), time.perf_counter() - t0, False, products=None)
        for (key, _, _), (code, out) in zip(commands, outputs):
            if code != 0:
                res.notes.append(f"{key}: exit code {code}")
                continue
            if pins.get(key) != stats.text_digest(out):
                res.notes.append(f"{key}: output digest differs from pinned")
                continue
            doc = json.loads(out)
            res.iterations += doc.get("iterations", 0) + doc.get("baseline_iterations", 0)
            res.events += len(doc.get("fault_events", []))
            if doc.get("overhead_percent") is not None:
                res.overhead_pct = doc["overhead_percent"]
        res.failed = bool(res.notes)
        return res

    def pin(self) -> dict:
        out = {}
        for fs in self.pool():
            for key, span, argv in cli_commands(fs):
                code, text = self._call(span, argv)
                if code != 0:
                    raise RuntimeError(f"refusing to pin {key}: exit code {code}")
                out[key] = stats.text_digest(text)
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def overhead_pct(self, results: list[OpResult]) -> dict[float, float]:
        # Rounds only run solve-ss at rate 0.1; the other rates are not exercised.
        rated = [r.overhead_pct for r in results if r.overhead_pct is not None]
        return {0.0: 0.0, 0.1: sum(rated) / len(rated) if rated else 0.0, 0.5: 0.0}


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "ss-spectrum-512": lambda: SpectrumWorkload("ss-spectrum-512", 512, 4),
    "ss-spectrum-64": lambda: SpectrumWorkload("ss-spectrum-64", 64, 32),
    "cli-mix": CliWorkload,
}


def oracle_gemv_ok(a: np.ndarray, seed: int) -> bool:
    """One product compared bit for bit against the straight-loop reference."""
    v = np.random.default_rng(seed).standard_normal(a.shape[0])
    got = isocg.linalg.gemv(a, v)
    want = oracles.left_fold_gemv(a, v)
    return bool(np.array_equal(got.view(np.uint64), want.view(np.uint64)))


def time_subprocess(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def _median_call_s(fn, min_reps: int, min_s: float) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < min_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


SWEEP_SIZES = (64, 512, 2048, 4096)
SWEEP_FAMILIES = {
    "dd": lambda n: isocg.linalg.gen_spd_diag_dominant(n, MATRIX_SEED),
    "spectrum": lambda n: isocg.linalg.gen_spd_spectrum(np.logspace(0, 3, n), MATRIX_SEED),
}


def kernel_sweep() -> dict[str, float]:
    """Median µs per ``gemv`` and ``dot`` call at each size on both matrix families."""
    out = {}
    for family, gen in SWEEP_FAMILIES.items():
        for n in SWEEP_SIZES:
            a = gen(n)
            b = isocg.linalg.gemv(a, np.ones(n))
            out[f"linalg.gemv.us_per_call.n{n}.{family}"] = 1e6 * _median_call_s(
                lambda: isocg.linalg.gemv(a, b), 3, 0.3)
            out[f"linalg.dot.us_per_call.n{n}.{family}"] = 1e6 * _median_call_s(
                lambda: isocg.linalg.dot(b, b), 20, 0.05)
            del a, b
    return out


def model_probes() -> dict[str, float]:
    """The iso/machine model: one hybrid query, one data-set load, the ETS break-even."""
    sset = isocg.machine.load_sampleset(isocg.machine.default_data_dir())
    ref = sset.sample("a15", 4, 1.6, "on_chip")
    tgt = sset.sample("a7", sset.spec("a7").cores_per_unit, 0.5, "on_chip")
    template = iso_mod.HybridSystem(reliable=ref, unreliable=tgt, n_unreliable=1.0, ss_fraction=0.1)
    llc = {"ref_llc_bytes": sset.spec("a15").llc_bytes,
           "unreliable_llc_bytes": sset.spec("a7").llc_bytes}

    def query(mode):
        return iso_mod.solve_hybrid_for_mode(mode, template, ref, **llc)

    perf = query(iso_mod.ISO_PERFORMANCE)
    breakeven = iso_mod.breakeven_degradation(ref, template.with_clusters(perf.cluster_count))
    return {
        "iso.query_us": 1e6 * _median_call_s(lambda: query(iso_mod.ISO_CAPACITY), 50, 0.05),
        "iso.breakeven_pct": 100.0 * breakeven,
        "machine.load_sampleset_ms": 1e3 * _median_call_s(
            lambda: isocg.machine.load_sampleset(isocg.machine.default_data_dir()), 20, 0.05),
    }
