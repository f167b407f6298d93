"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stats import tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(20, 50, 10), (38, 73, 10), (100, 90, 10), (1500, 99, 15)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile, beyond):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    p, value, got_beyond = tail_percentile(samples)
    assert (p, got_beyond) == (percentile, beyond)
    assert sum(s > value for s in samples) == beyond
    if p < 99:  # one percentile higher leaves fewer than ten beyond
        assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_falls_back_to_maximum_below_twenty_samples():
    samples = [0.3, 0.1, 0.9, 0.2] * 3 + [1.5]
    assert tail_percentile(samples) == (100, 1.5, 0)


def _checkout(tmp_path: Path, with_program: bool = True) -> Path:
    """A copy of the benchmark that reads the repository's program and oracles."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src")
        (tmp_path / "tests").symlink_to(ROOT / "tests")
    return tmp_path


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170, check=False)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tampered_digest_is_one_failure_out_of_n(tmp_path):
    root = _checkout(tmp_path)
    pins_path = root / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pool = pins["ss-spectrum-64"]
    key = sorted(pool)[5]
    pool[key] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    # A tiny --seconds runs exactly one pass: every operation once.
    proc = _run(root, "--workload", "ss-spectrum-64", "--seed", "1", "--seconds", "0.01", "--trace", "0")
    res = _result(proc)
    assert res["attempted"] == len(pool) + 1  # the pass plus the oracle gemv check
    assert res["failed"] == 1
    assert res["correct"] is False
    assert f"failure: {key}: digest differs" in proc.stdout
    assert f"failed_frac: {1 / res['attempted']:.6g} (1 of {res['attempted']}" in proc.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section):
    proc = _run(ROOT, "--workload", "ss-spectrum-64", "--seed", "2", "--seconds", "0.5",
                "--trace", str(trace))
    res = _result(proc)
    assert res["correct"] is True and res["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    lines = proc.stdout.splitlines()
    for name, unit in declared.items():
        assert any(line.startswith(f"{name}: ") and f" {unit}" in line for line in lines), name
    if trace == 0:
        assert any(line.startswith("op_s_tail: ") and ", n=" in line and " samples beyond" in line
                   for line in lines)


def test_fails_without_the_program(tmp_path):
    root = _checkout(tmp_path, with_program=False)
    proc = _run(root, "--workload", "ss-spectrum-64", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
