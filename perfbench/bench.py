"""Measurement: the timed run, the traced run, and their reports.

Imported by ``run.py`` only after the BLAS thread count and import paths
are set, because numpy reads the thread count when it is first imported.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

import spans
import stats
import workloads as wl_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PINS = HERE / "pins.json"

# Fresh processes timed for setup_s; their median is reported.
SETUP_REPS = 7
IMPORT_REPS = 3
LARGEST_MATRIX_BYTES = 8 * max(wl_mod.SWEEP_SIZES) ** 2
CLI_SPANS = tuple(span for _, span, _ in wl_mod.cli_commands(0))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _size_bytes(text: str) -> int | None:
    text = text.strip()
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else None


def host_record() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    llc = _size_bytes(_read("/sys/devices/system/cpu/cpu0/cache/index3/size"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "llc_bytes": llc,
        "largest_matrix_bytes": LARGEST_MATRIX_BYTES,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if llc:
        fits = "fits in" if LARGEST_MATRIX_BYTES <= llc else "exceeds"
        rec["llc_note"] = (f"the largest matrix (n=4096, {LARGEST_MATRIX_BYTES / 2**20:.0f} MiB) "
                           f"{fits} the {llc / 2**20:.0f} MiB LLC")
    return rec


def closed_loop(wl, ops, seconds: float, pins: dict, whole_passes: bool, tracer=None):
    """Run operations one at a time until ``seconds`` pass, never fewer than one pass.

    With ``whole_passes`` the loop also ends only at a pass boundary, so
    counts divide evenly by the number of passes.
    """
    results = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(ops) or time.perf_counter() < deadline or (whole_passes and i % len(ops)):
        op = ops[i % len(ops)]
        if tracer is None:
            results.append(wl.run(op, pins))
        else:
            tracer.op_id = i
            with tracer.span("op"):
                results.append(wl.run(op, pins))
        i += 1
    return results


def pass_counts(results, ops) -> dict:
    first = results[: len(ops)]
    counts = {
        "solvers.iterations": sum(r.iterations for r in first),
        "faults.events": sum(r.events for r in first),
    }
    if all(r.products is not None for r in first):
        counts["linalg.gemv.calls"] = sum(r.products for r in first)
    return counts


def _prepare(wl, seed: int, pins: dict):
    """Set-up outside the timed region: inputs, the oracle check and warm-up operations."""
    wl.prepare()
    oracle_ok = wl_mod.oracle_gemv_ok(wl.oracle_matrix(), seed)
    ops = wl.ops(seed)
    warm = [wl.run(ops[i % len(ops)], pins).seconds for i in range(wl_mod.WARMUP_OPS)]
    return ops, oracle_ok, warm


def timed_run(wl, seed: int, seconds: float, pins: dict) -> dict:
    warmup_s = wl_mod.time_subprocess(wl.setup_code)
    setup = [wl_mod.time_subprocess(wl.setup_code) for _ in range(SETUP_REPS)]
    ops, oracle_ok, warm = _prepare(wl, seed, pins)
    results = closed_loop(wl, ops, seconds, pins, whole_passes=False)
    times = [r.seconds for r in results]
    p, tail, beyond = stats.tail_percentile(times)
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "op_s_p50": statistics.median(times),
            "op_s_tail": tail,
            "peak_rss_mb": wl.peak_rss_mb(),
        },
        "detail": {
            "warmup_process_s": warmup_s,
            "setup_samples_s": setup,
            "warmup_ops_s": warm,
            "tail_percentile": p,
            "tail_samples_beyond": beyond,
            "op_samples": len(times),
            "counts_per_pass": pass_counts(results, ops),
            "op_times_s": times,
        },
        "results": results,
        "oracle_ok": oracle_ok,
        "notes": [],
    }


def traced_run(wl, seed: int, seconds: float, pins: dict) -> dict:
    cli = isinstance(wl, wl_mod.CliWorkload)
    if cli:
        wl.in_process = True
    ops, oracle_ok, _ = _prepare(wl, seed, pins)
    plain = closed_loop(wl, ops, seconds / 3, pins, whole_passes=False)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        if cli:
            wl.span = tracer.span
        traced = closed_loop(wl, ops, 2 * seconds / 3, pins, whole_passes=True, tracer=tracer)
    passes = len(traced) // len(ops)
    table = spans.SpanTable(tracer)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl.name}.npz")

    metrics, notes = layer_metrics(wl, table, traced, passes)
    metrics.update({f"solvers.overhead_pct.rate{rate:g}": pct
                    for rate, pct in wl.overhead_pct(traced[: len(ops)]).items()})
    metrics["cli.import_s"] = statistics.median(
        [wl_mod.time_subprocess("import isocg\n") for _ in range(IMPORT_REPS)])
    metrics.update(wl_mod.model_probes())
    metrics.update(wl_mod.kernel_sweep())
    untraced_p50 = statistics.median([r.seconds for r in plain])
    traced_p50 = statistics.median([r.seconds for r in traced])
    metrics["trace.op_s_p50"] = traced_p50
    metrics["trace.untraced_op_s_p50"] = untraced_p50
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    metrics["trace.spans"] = len(tracer.name) / passes
    return {
        "metrics": metrics,
        "detail": {"passes": passes, "counts_per_pass": pass_counts(traced, ops),
                   "untraced_ops": len(plain), "traced_ops": len(traced),
                   "solve_span_s": table.total(*spans.SOLVER_SPANS) / passes,
                   "solve_children_s": table.children_total(*spans.SOLVER_SPANS) / passes},
        "results": plain + traced,
        "oracle_ok": oracle_ok,
        "notes": notes,
    }


def layer_metrics(wl, t: spans.SpanTable, results, passes: int) -> tuple[dict, list[str]]:
    """Per-pass layer numbers from the span table; shares are of operation time."""
    op_s = t.total("op")
    gemv = t.mask("linalg.gemv")
    gemv_s = float(t.dur[gemv].sum())
    gemv_calls = int(gemv.sum())
    n = t.size[gemv].astype(np.float64)
    solver_gemv = t.under("linalg.gemv", *spans.SOLVER_SPANS)
    products = int(solver_gemv.sum())
    flops = float((2.0 * t.size[solver_gemv].astype(np.float64) ** 2).sum())
    solve_s = t.total(*spans.SOLVER_SPANS)
    iterations = sum(r.iterations for r in results)
    events = sum(r.events for r in results)
    inject_calls = t.count("faults.inject")
    gen_s = t.total("linalg.gen")

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "linalg.gemv.calls": gemv_calls / passes,
        "linalg.gemv.s": gemv_s / passes,
        "linalg.gemv.share": ratio(gemv_s, op_s),
        "linalg.gemv.us_per_call": 1e6 * ratio(gemv_s, gemv_calls),
        "linalg.gemv.gbs_computed": 1e-9 * ratio(float((8 * n * n + 16 * n).sum()), gemv_s),
        "linalg.dot.calls": t.count("linalg.dot") / passes,
        "linalg.dot.s": t.total("linalg.dot") / passes,
        "linalg.dot.share": ratio(t.total("linalg.dot"), op_s),
        # On ss-* the matrix is generated once, before the operations.
        "linalg.gen.s": gen_s / passes if gen_s else getattr(wl, "gen_s", 0.0),
        "faults.inject.calls": inject_calls / passes,
        "faults.inject.s": t.total("faults.inject") / passes,
        "faults.inject.share": ratio(t.total("faults.inject"), op_s),
        "faults.events": events / passes,
        "faults.hit_ratio": ratio(events, inject_calls),
        "solvers.iterations": iterations / passes,
        "solvers.products_per_iter": ratio(products, iterations),
        "solvers.self_s": t.self_total(*spans.SOLVER_SPANS) / passes,
        "solvers.us_per_iter": 1e6 * ratio(solve_s, iterations),
        "solvers.gflops": 1e-9 * ratio(flops, solve_s),
        "cli.self_s": t.self_total(*CLI_SPANS) / passes,
    }
    for name in CLI_SPANS:
        m[f"{name}.s"] = t.total(name) / passes
    notes = []
    report_products = [r.products for r in results]
    if None not in report_products and sum(report_products) != products:
        notes.append(f"span count mismatch: {products} gemv spans under solves, "
                     f"{sum(report_products)} products in the solver reports")
    return m, notes


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def render(name: str, value: float, unit: str, detail: dict, trace: int) -> str:
    line = f"{name}: {value:.6g} {unit}"
    if trace:
        return line
    extra = {
        "setup_s": f"median of {SETUP_REPS} fresh processes; the warm-up process "
                   f"({detail['warmup_process_s']:.4f} s) ran first and is excluded",
        "op_s_p50": f"n={detail['op_samples']} operations",
        "op_s_tail": f"p{detail['tail_percentile']}, n={detail['op_samples']}, "
                     f"{detail['tail_samples_beyond']} samples beyond",
        "peak_rss_mb": "peak resident set",
    }.get(name)
    return f"{line} ({extra})" if extra else line


def main(workload: str, seed: int, seconds: float, trace: int) -> int:
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(workload, {})
    wl = wl_mod.WORKLOADS[workload]()
    host = host_record()
    print(f"workload {workload} seed {seed} seconds {seconds:g} trace {trace}")
    print("why: " + next(w["why"] for w in spec["workloads"] if w["name"] == workload))
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    out = (traced_run if trace else timed_run)(wl, seed, seconds, pins)

    results = out["results"]
    notes = out["notes"] + [n for r in results for n in r.notes]
    attempted = len(results) + 1  # the operations plus the oracle gemv check
    failed = sum(r.failed for r in results) + (not out["oracle_ok"])
    if not out["oracle_ok"]:
        notes.append("gemv differs from tests/oracles.left_fold_gemv")
    produced = set(out["metrics"])
    declared = {m["name"] for m in wanted}
    if produced != declared:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"missing {sorted(declared - produced)}, extra {sorted(produced - declared)}")

    metrics = {}
    for m in wanted:
        value = float(out["metrics"][m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(render(m["name"], value, m["unit"], out["detail"], trace))
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for key, value in out["detail"]["counts_per_pass"].items():
        print(f"count per pass {key}: {value}")
    for note in notes[:20]:
        print(f"failure: {note}")
    if trace:
        d = out["detail"]
        print(f"solve span per pass: {d['solve_span_s']:.6f} s = children (gemv, dot, inject) "
              f"{d['solve_children_s']:.6f} s + solvers.self_s "
              f"{metrics['solvers.self_s']['value']:.6f} s")
        print(f"tracing overhead: {metrics['trace.overhead_s']['value']:+.6f} s per operation "
              f"(traced minus untraced op_s_p50)")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host, "metrics": metrics, "failed": failed, "attempted": attempted,
        "failures": notes, "detail": out["detail"],
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    correct = failed == 0 and not out["notes"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def pin() -> int:
    """Re-pin every operation's digest from the current code."""
    doc = {}
    for name, make in wl_mod.WORKLOADS.items():
        wl = make()
        wl.prepare()
        doc[name] = wl.pin()
        print(f"pinned {len(doc[name])} digests for {name}")
    PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0
