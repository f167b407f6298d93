import ast
import contextlib
import hashlib
import io
import json
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isocg
import isocg.cli
import oracles
from isocg import (ISO_PERFORMANCE, ISO_POWER, HybridSystem, default_data_dir, load_sampleset,
                   save_sampleset, solve_hybrid_for_mode)
from isocg.cli import run

# The iso --csv header, as README "File formats" gives it.
ISO_CSV_HEADER = ("mode,cluster_count,achieved_gflops,achieved_watts,perf_vs_ref,power_vs_ref,"
                  "ref_perf_vs_target,ref_power_vs_target,efficiency_vs_ref")


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSolve:
    def test_generated_system_converges(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--size", "64", "--seed", "7")
        assert code == 0
        assert "converged: yes" in out
        assert "flops: 65536" in out.replace("flops: ", "flops: ") or "flops:" in out

    def test_hand_2x2_fixture(self, capsys):
        path = str(default_data_dir() / "hand2x2.json")
        doc = run_cli_json(capsys, "solve", "--size", "2", "--matrix", path, "--json")
        expected = oracles.solve_2x2([[4.0, 1.0], [1.0, 3.0]], [1.0, 2.0])
        assert doc["converged"] is True
        assert doc["solution"][0] == pytest.approx(expected[0], abs=1e-10)
        assert doc["solution"][1] == pytest.approx(expected[1], abs=1e-10)
        assert doc["solution"][0] == pytest.approx(0.090909, abs=1e-6)
        assert doc["solution"][1] == pytest.approx(0.636364, abs=1e-6)

    def test_missing_size_and_matrix_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["solve"])
        assert excinfo.value.code == 64

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["solve", "--size", "8", "--frobnicate"])
        assert excinfo.value.code == 64

    def test_missing_matrix_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--matrix", "/no/such/file.json")
        assert code == 66
        assert "cannot read" in err

    def test_malformed_matrix_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "solve", "--matrix", str(bad))
        assert code == 65

    def test_size_mismatch_with_matrix(self, capsys):
        path = str(default_data_dir() / "hand2x2.json")
        code, _, err = run_cli(capsys, "solve", "--size", "3", "--matrix", path)
        assert code == 65

    def test_nonconvergence_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--size", "32", "--max-iter", "1",
                               "--tol", "1e-30")
        assert code == 2
        assert "converged: no" in out

    def test_json_runs_are_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "solve", "--size", "48", "--seed", "3", "--json")
        _, out2, _ = run_cli(capsys, "solve", "--size", "48", "--seed", "3", "--json")
        assert out1 == out2


class TestSolveSs:
    def test_rate_zero_overhead_zero(self, capsys):
        doc = run_cli_json(capsys, "solve-ss", "--size", "64", "--seed", "2",
                           "--fault-rate", "0", "--json")
        assert doc["converged"] is True
        assert doc["overhead_percent"] == 0.0
        assert doc["fault_events"] == []

    def test_injected_run_reports_overhead_and_events(self, capsys):
        doc = run_cli_json(
            capsys, "solve-ss", "--size", "128", "--fault-rate", "0.1",
            "--fault-bits", "sign-mantissa", "--fault-seed", "3", "--json",
        )
        assert doc["converged"] is True
        assert doc["overhead_percent"] >= 0.0
        assert doc["rng_algorithm"] == "pcg64"
        for event in doc["fault_events"]:
            assert event["iteration"] is not None

    def test_invalid_bit_domain_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["solve-ss", "--size", "16", "--fault-bits", "parity"])
        assert excinfo.value.code == 64

    def test_human_output_mentions_overhead(self, capsys):
        code, out, _ = run_cli(capsys, "solve-ss", "--size", "32", "--fault-rate", "0")
        assert code == 0
        assert "iteration overhead: 0.0%" in out

    @pytest.mark.parametrize("rate,calls", [("0", 1), ("0.1", 2)])
    def test_fault_free_run_is_its_own_baseline(self, capsys, monkeypatch, rate, calls):
        seen = []
        solve = isocg.cli.sscg_solve

        def counted(*args, **kwargs):
            seen.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(isocg.cli, "sscg_solve", counted)
        doc = run_cli_json(capsys, "solve-ss", "--size", "32", "--fault-rate", rate, "--json")
        assert len(seen) == calls
        assert doc["converged"] is True


class TestIso:
    def test_perf_xeon_vs_a15(self, capsys):
        doc = run_cli_json(capsys, "iso", "--mode", "perf", "--ref", "xeon:8:2.0",
                           "--target", "a15:1.6", "--json")
        assert doc["cluster_count"] == pytest.approx(9.1, rel=1e-12)
        assert doc["ratios"]["power_vs_ref"] == pytest.approx(1.001, abs=0.01)

    def test_perf_xeon_vs_a7(self, capsys):
        doc = run_cli_json(capsys, "iso", "--mode", "perf", "--ref", "xeon:8:2.0",
                           "--target", "a7:0.5", "--json")
        assert doc["cluster_count"] == pytest.approx(50.2, rel=0.02)
        assert doc["ratios"]["power_vs_ref"] == pytest.approx(0.14, abs=0.01)

    def test_power_xeon_vs_a7(self, capsys):
        doc = run_cli_json(capsys, "iso", "--mode", "power", "--ref", "xeon:8:2.0",
                           "--target", "a7:0.5", "--json")
        assert doc["ratios"]["perf_vs_ref"] == pytest.approx(7.0, abs=0.2)

    def test_capacity_names_only(self, capsys):
        code, out, _ = run_cli(capsys, "iso", "--mode", "capacity",
                               "--ref", "xeon", "--target", "a7")
        assert code == 0
        assert "clusters: 40.0000" in out

    def test_capacity_hybrid(self, capsys):
        doc = run_cli_json(capsys, "iso", "--mode", "capacity", "--ref", "a15:4:1.6",
                           "--target", "a7:0.5", "--hybrid", "--json")
        assert doc["cluster_count"] == 4.0
        assert doc["achieved_gflops"] == pytest.approx(1.57, abs=0.02)
        assert doc["achieved_watts"] == pytest.approx(1.05, abs=0.02)
        assert doc["ratios"]["ref_perf_vs_target"] == pytest.approx(1.33, abs=0.02)
        assert doc["ratios"]["ref_power_vs_target"] == pytest.approx(5.22, rel=0.02)

    def test_perf_hybrid(self, capsys):
        doc = run_cli_json(capsys, "iso", "--mode", "perf", "--ref", "a15:4:1.6",
                           "--target", "a7:0.5", "--hybrid", "--json")
        assert doc["cluster_count"] == pytest.approx(5.51, rel=0.01)

    def test_unknown_machine_exits_65(self, capsys):
        code, _, err = run_cli(capsys, "iso", "--mode", "perf", "--ref", "epyc:8:2.0",
                               "--target", "a15:1.6")
        assert code == 65
        assert "epyc" in err
        assert "available:" in err

    def test_unknown_sample_exits_65(self, capsys):
        code, _, err = run_cli(capsys, "iso", "--mode", "perf", "--ref", "xeon:8:1.5",
                               "--target", "a15:1.6")
        assert code == 65

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "iso", "--mode", "perf", "--ref", "xeon:8:2.0",
                               "--target", "a15:1.6", "--csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ISO_CSV_HEADER
        assert len(lines) == 2

    def test_hybrid_json_keys(self, capsys, bundled_data):
        doc = run_cli_json(capsys, "iso", "--mode", "perf", "--ref", "a15:4:1.6",
                           "--target", "a7:0.5", "--hybrid", "--json")
        template = HybridSystem(bundled_data.sample("a15", 4, 1.6),
                                bundled_data.sample("a7", 4, 0.5), 1.0)
        assert set(doc) == {"mode", "cluster_count", "achieved_gflops", "achieved_watts", "ratios"}
        assert doc["mode"] == ISO_PERFORMANCE
        assert doc["cluster_count"] == solve_hybrid_for_mode(ISO_PERFORMANCE, template).cluster_count
        assert set(doc["ratios"]) == {
            "perf_vs_ref",
            "power_vs_ref",
            "ref_perf_vs_target",
            "ref_power_vs_target",
            "efficiency_vs_ref",
        }

    def test_hybrid_csv_row_matches_columns(self, capsys, bundled_data):
        code, out, _ = run_cli(capsys, "iso", "--mode", "power", "--ref", "a15:4:1.6",
                               "--target", "a7:0.5", "--hybrid", "--csv")
        assert code == 0
        header, row = (line.split(",") for line in out.splitlines())
        template = HybridSystem(bundled_data.sample("a15", 4, 1.6),
                                bundled_data.sample("a7", 4, 0.5), 1.0)
        assert len(row) == len(header)
        assert row[0] == ISO_POWER
        assert float(row[1]) == solve_hybrid_for_mode(ISO_POWER, template).cluster_count

    def test_bad_ss_fraction_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["iso", "--mode", "perf", "--ref", "a15:4:1.6", "--target", "a7:0.5",
                 "--hybrid", "--ss-fraction", "1.5"])
        assert excinfo.value.code == 64

    @pytest.mark.parametrize("fraction", ["0", "0.5"])
    def test_ss_fraction_without_hybrid_is_usage_error(self, capsys, fraction):
        with pytest.raises(SystemExit) as excinfo:
            run(["iso", "--mode", "perf", "--ref", "xeon:8:2.0", "--target", "a15:1.6",
                 "--ss-fraction", fraction])
        assert excinfo.value.code == 64
        assert capsys.readouterr().err.splitlines()[-1] == (
            "isocg: error: --ss-fraction requires --hybrid")

    def test_data_dir_override(self, capsys, tmp_path, monkeypatch):
        data = load_sampleset(default_data_dir())
        save_sampleset(data, tmp_path)
        text = (tmp_path / "samples.csv").read_text()
        # double the a15 throughput in the override directory
        text = text.replace("a15,4,1.6,on_chip,2.1,5.49,paper",
                            "a15,4,1.6,on_chip,4.2,5.49,paper")
        (tmp_path / "samples.csv").write_text(text)
        monkeypatch.setenv("ISOCG_DATA_DIR", str(tmp_path))
        doc = run_cli_json(capsys, "iso", "--mode", "perf", "--ref", "xeon:8:2.0",
                           "--target", "a15:1.6", "--json")
        assert doc["cluster_count"] == pytest.approx(19.11 / 4.2, rel=1e-12)

    def test_explicit_data_csv_path(self, capsys, tmp_path):
        save_sampleset(load_sampleset(default_data_dir()), tmp_path)
        doc = run_cli_json(capsys, "iso", "--mode", "perf", "--ref", "xeon:8:2.0",
                           "--target", "a15:1.6", "--data", str(tmp_path / "samples.csv"),
                           "--json")
        assert doc["cluster_count"] == pytest.approx(9.1, rel=1e-12)


class TestEts:
    def test_default_curve_breakeven(self, capsys):
        doc = run_cli_json(capsys, "ets", "--json")
        assert doc["mode"] == "iso_performance"
        assert abs(doc["breakeven_percent"] - 340.0) <= 10.0
        # the crossing point is included as a curve row
        crossing = [
            p for p in doc["points"]
            if p["degradation_percent"] == pytest.approx(doc["breakeven_percent"])
        ]
        assert crossing
        assert crossing[0]["ets_hybrid_joules"] == pytest.approx(
            crossing[0]["ets_reference_joules"], rel=1e-9
        )

    def test_single_point_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "ets", "--degradation", "0:0:1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "degradation_percent,ets_reference_joules,ets_hybrid_joules"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        ratio = float(first[2]) / float(first[1])
        assert ratio == pytest.approx(0.226, abs=0.005)

    def test_reference_flat_and_hybrid_affine(self, capsys):
        doc = run_cli_json(capsys, "ets", "--degradation", "0:100:50", "--json")
        pts = [p for p in doc["points"]]
        refs = {p["ets_reference_joules"] for p in pts}
        assert len(refs) == 1

    def test_iso_power_mode_breakeven_tracks_throughput_gain(self, capsys):
        doc = run_cli_json(capsys, "ets", "--mode", "iso-power", "--json")
        expected = (doc["hybrid"]["gflops"] / doc["reference"]["gflops"] - 1.0) * 100.0
        assert doc["breakeven_percent"] == pytest.approx(expected, rel=1e-9)

    def test_iso_capacity_mode(self, capsys):
        doc = run_cli_json(capsys, "ets", "--mode", "iso-capacity", "--json")
        assert doc["cluster_count"] == 4.0

    def test_malformed_range_is_usage_error(self):
        for bad in ("5", "10:0:5", "0:10:0", "a:b:c"):
            with pytest.raises(SystemExit) as excinfo:
                run(["ets", "--degradation", bad])
            assert excinfo.value.code == 64

    def test_csv_runs_are_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "ets", "--degradation", "0:50:10")
        _, out2, _ = run_cli(capsys, "ets", "--degradation", "0:50:10")
        assert out1 == out2


class TestModelOutputDigest:
    """Exit codes and stdout of the iso and ets queries, plain and hybrid, byte for byte."""

    # sha256 of ``_digest()``, recorded before iso and ets shared one matching call.
    PINNED = "1e2bc2d1f61ff0b7a48bdc5445d8c6504d5bb6b683c4bde373fae342b4bedfa3"

    @staticmethod
    def _argvs():
        for mode in ("perf", "power", "capacity"):
            for ref in ("xeon:8:2.0", "a15:4:1.6", "xeon", "a15"):
                for target in ("a7:0.5", "a15:1.6", "a7"):
                    for fmt in ([], ["--json"], ["--csv"], ["--hybrid", "--json"],
                                ["--hybrid", "--csv"]):
                        yield ["iso", "--mode", mode, "--ref", ref, "--target", target, *fmt]
        for mode in ("iso-perf", "iso-power", "iso-capacity"):
            for fmt in ([], ["--json"]):
                for fraction in ([], ["--ss-fraction", "0.5"]):
                    yield ["ets", "--size", "16", "--mode", mode, *fmt, *fraction]

    @staticmethod
    def _digest():
        h = hashlib.sha256()
        for argv in TestModelOutputDigest._argvs():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = run(argv)
                except SystemExit as exc:
                    code = exc.code
            h.update(repr((argv, code, out.getvalue())).encode())
        return h.hexdigest()

    def test_digest_matches_pinned(self):
        assert self._digest() == self.PINNED


class TestMachineAddress:
    """A ref is machine or machine:cores:freq and a target machine or machine:freq;
    any other form is a usage error."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["ets", "--size", "16", "--target", "a7:2:0.5"],
             "expected machine:freq, got 'a7:2:0.5'"),
            (["iso", "--mode", "capacity", "--ref", "a15:0.8", "--target", "a7"],
             "expected machine or machine:cores:freq, got 'a15:0.8'"),
        ],
        ids=["ets-target-with-cores", "iso-ref-without-cores"],
    )
    def test_exit_64_with_one_message(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert [line for line in err.splitlines() if "error" in line] == [
            f"isocg: error: {message}"]


class TestCliBoundary:
    def test_cli_uses_public_library_names_only(self):
        tree = ast.parse(Path(isocg.cli.__file__).read_text(encoding="utf-8"))
        private = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "isocg"):
                private += [alias.name for alias in node.names if alias.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "iso_mod" and node.attr.startswith("_")):
                private.append(f"iso_mod.{node.attr}")
        assert private == []


class TestPackageExports:
    def test_all_is_the_union_of_the_module_lists(self):
        errors = [name for name, value in vars(isocg.errors).items()
                  if isinstance(value, type) and issubclass(value, Exception)
                  and value.__module__ == isocg.errors.__name__]
        modules = (isocg.linalg, isocg.faults, isocg.solvers, isocg.machine, isocg.iso)
        expected = {"__version__", *errors, *(name for m in modules for name in m.__all__)}
        assert len(isocg.__all__) == len(set(isocg.__all__))
        assert set(isocg.__all__) == expected
        assert [name for name in isocg.__all__ if not hasattr(isocg, name)] == []


class TestSubprocessEntryPoints:
    def test_python_m_isocg(self):
        result = subprocess.run(
            [sys.executable, "-m", "isocg", "solve", "--size", "16", "--seed", "1", "--json"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["converged"] is True

    def test_closed_stdout_ends_by_sigpipe(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "isocg", "ets", "--size", "16", "--degradation", "0:9000:1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"degradation_percent,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
        assert err == b""

    def test_repeated_invocations_byte_identical(self):
        cmd = [sys.executable, "-m", "isocg", "ets", "--degradation", "0:30:10", "--json"]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestBadSettings:
    """Bad solver or fault settings are usage errors: exit 64, one message, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--size", "8", "--tol", "nan"],
            ["solve-ss", "--size", "8", "--ss-period", "0"],
            ["solve-ss", "--size", "8", "--fault-rate", "2"],
            ["solve", "--size", "8", "--max-iter", "0"],
            ["solve", "--size", "8", "--tol", "-1"],
            ["solve", "--size", "2", "--tol", "inf"],
            ["solve-ss", "--size", "8", "--fault-rate", "-0.5"],
            ["solve-ss", "--size", "8", "--fault-rate", "nan"],
            ["solve-ss", "--size", "8", "--fault-rate", "0.5", "--flips", "100"],
            ["ets", "--size", "0"],
        ],
        ids=" ".join,
    )
    def test_exit_64_without_traceback(self, argv):
        result = subprocess.run([sys.executable, "-m", "isocg", *argv],
                                capture_output=True, text=True)
        assert result.returncode == 64, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines()[-1].startswith("isocg: ")
        assert result.stdout == ""


class TestDivergenceMessage:
    def test_overflowing_faults_print_one_line(self):
        # Exponent flips overflow the products; numpy's RuntimeWarning must
        # not reach stderr ahead of the one-line divergence message.
        result = subprocess.run(
            [sys.executable, "-m", "isocg", "solve-ss", "--size", "32", "--fault-rate", "1",
             "--fault-bits", "exponent", "--flips", "3", "--ss-period", "50"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("solver diverged: ")


class TestNonFiniteSystemFile:
    """JSON admits Infinity and NaN; a system file holding them is bad data (65)."""

    @pytest.mark.parametrize(
        "text",
        ['{"A": [[1, Infinity], [Infinity, 1]]}', '{"A": [[2, 1], [1, 2]], "b": [1, NaN]}'],
        ids=["infinite-A", "nan-b"],
    )
    def test_exit_65_without_traceback(self, tmp_path, text):
        path = tmp_path / "system.json"
        path.write_text(text)
        result = subprocess.run([sys.executable, "-m", "isocg", "solve", "--matrix", str(path)],
                                capture_output=True, text=True)
        assert result.returncode == 65, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines()[-1] == f"isocg: bad system file {path}: non-finite entries"
        assert result.stdout == ""


class TestNonSymmetricSystemFile:
    """A --matrix A that is not symmetric is bad data (65), not a 100-iteration non-convergence."""

    @pytest.mark.parametrize(
        "a",
        [[[4, 1], [0, 3]], np.random.default_rng(6).random((6, 6)).tolist()],
        ids=["hand-2x2", "random-6x6"],
    )
    def test_exit_65_without_traceback(self, tmp_path, a):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"A": a}))
        result = subprocess.run([sys.executable, "-m", "isocg", "solve", "--matrix", str(path)],
                                capture_output=True, text=True)
        assert result.returncode == 65, result.stderr
        assert "Traceback" not in result.stderr
        message = result.stderr.splitlines()[-1]
        assert message.startswith(f"isocg: bad system file {path}: A is not symmetric (")
        assert "1e-10 * max|A|" in message
        assert result.stdout == ""

    def test_rounding_asymmetry_is_accepted(self, capsys, tmp_path):
        a = np.array([[4.0, 1.0], [1.0 + 2.0**-50, 3.0]])
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"A": a.tolist(), "b": [1.0, 2.0]}))
        code, out, err = run_cli(capsys, "solve", "--matrix", str(path))
        assert code == 0, err
        assert "converged: yes" in out


_ISO_PERF = ["iso", "--mode", "perf", "--ref", "a15:4:1.6", "--target", "a7:0.5"]


class TestNonUtf8Input:
    """A --matrix file or data-set file that is not UTF-8 is bad data (65), named on one line."""

    @pytest.mark.parametrize("name", ["system.json", "samples.csv", "machines.ini"])
    def test_exit_65_without_traceback(self, tmp_path, name):
        save_sampleset(load_sampleset(default_data_dir()), tmp_path)
        path = tmp_path / name
        if name == "system.json":
            path.write_bytes(b'\xff{"A": [[2]]}')
            argv = ["solve", "--matrix", str(path)]
        else:
            path.write_bytes(path.read_bytes().replace(b"a15", b"a\xff15", 1))
            argv = [*_ISO_PERF, "--data", str(tmp_path)]
        result = subprocess.run([sys.executable, "-m", "isocg", *argv],
                                capture_output=True, text=True)
        assert result.returncode == 65, result.stderr
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("isocg: ")
        assert str(path) in result.stderr
        assert "can't decode byte 0xff" in result.stderr
        assert result.stdout == ""


class TestNonFiniteDataSet:
    """A data set holding a NaN or infinite number is bad data (65), named by its line."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [_ISO_PERF + ["--json"], _ISO_PERF + ["--csv"], ["ets", "--size", "16"]],
        ids=["iso-json", "iso-csv", "ets"],
    )
    def test_sample_exits_65(self, capsys, tmp_path, value, argv):
        save_sampleset(load_sampleset(default_data_dir()), tmp_path)
        samples = tmp_path / "samples.csv"
        text = samples.read_text()
        assert "\na7,4,0.5,on_chip,0.38," in text
        samples.write_text(text.replace("\na7,4,0.5,on_chip,0.38,", f"\na7,4,0.5,on_chip,{value},"))
        code, out, err = run_cli(capsys, *argv, "--data", str(tmp_path))
        assert code == 65
        assert out == ""
        assert err == f"isocg: {samples}:5: ('a7', 4, 0.5, 'on_chip'): " \
                      "freq_ghz, gflops and watts must be finite\n"

    def test_machine_exits_65(self, capsys, tmp_path):
        save_sampleset(load_sampleset(default_data_dir()), tmp_path)
        machines = tmp_path / "machines.ini"
        machines.write_text(machines.read_text().replace("stream_bandwidth_gbs = 5.4",
                                                         "stream_bandwidth_gbs = nan"))
        code, out, err = run_cli(capsys, *_ISO_PERF, "--data", str(tmp_path))
        assert code == 65
        assert out == ""
        assert err.startswith(f"isocg: {machines}: machine 'a15': ")
        assert err.endswith("must be finite\n")


class TestSizeBudget:
    """A --size whose A alone exceeds physical memory is a usage error, found before any allocation."""

    @pytest.mark.parametrize("command", ["solve", "solve-ss", "ets"])
    def test_exit_64_before_generating(self, capsys, monkeypatch, command):
        def refuse(*args):
            raise AssertionError("the generator ran")

        monkeypatch.setattr(isocg.cli, "gen_spd_diag_dominant", refuse)
        code, out, err = run_cli(capsys, command, "--size", str(10**8))
        assert code == 64
        assert out == ""
        assert err.startswith(f"isocg: --size {10**8} needs {8 * 10**16} bytes for A")
        assert len(err.splitlines()) == 1


class TestNegativeSeeds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--size", "8", "--seed", "-1"],
            ["solve-ss", "--size", "8", "--seed", "-2"],
            ["solve-ss", "--size", "8", "--fault-rate", "0.1", "--fault-seed", "-1"],
            ["ets", "--seed", "-1"],
        ],
        ids=" ".join,
    )
    def test_exit_64(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 64
        assert "seeds must be integers >= 0" in capsys.readouterr().err


class TestDegradationRange:
    def test_infinite_stop_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["ets", "--degradation", "0:inf:10"])
        assert excinfo.value.code == 64
        assert "range must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0:1e7:1e-3", "0:10000:1"])
    def test_too_many_points_is_usage_error(self, capsys, bad):
        with pytest.raises(SystemExit) as excinfo:
            run(["ets", "--degradation", bad])
        assert excinfo.value.code == 64
        assert "more than 10000 points" in capsys.readouterr().err

    def test_step_below_the_spacing_of_start_is_usage_error(self):
        # start + step == start, so the range would never advance
        with pytest.raises(SystemExit) as excinfo:
            run(["ets", "--degradation", "1e20:1e20:1"])
        assert excinfo.value.code == 64

    def test_ten_thousand_points_are_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "ets", "--size", "8", "--degradation", "0:9999:1")
        assert code == 0
        assert len(out.splitlines()) >= 1 + 10_000


# Valid values are listed more than once, so that more argvs get past parsing.
_NUMBERS = st.sampled_from(["0.5", "0.5", "1e-12", "1", "2", "0", "-1", "nan", "inf", "x"])
_INTS = st.sampled_from(["1", "3", "3", "0", "-1", "x", "1.5", "99999999999999999999"])
_SIZES = st.integers(-2, 32).map(str)
_REFS = st.sampled_from(["a15:4:1.6"] * 3 + ["xeon:8:2.0"] * 2 + ["a15", "nope:1:1", "a15:x:y",
                                                                  "a15:4:9.9", ""])
_TARGETS = st.sampled_from(["a7:0.5"] * 3 + ["a15:1.6", "a7", "a7:4:0.5", "a7:x", ""])
_DATA = st.sampled_from(
    [str(default_data_dir()), str(default_data_dir() / "samples.csv"), "no-such-data-dir"]
)
_SYSTEM_FILES = st.sampled_from(
    [str(default_data_dir() / "hand2x2.json"), str(default_data_dir() / "machines.ini"),
     "no-such-system.json"]
)


def _argv(command, required, optional, switches):
    """Strategy for ``[command, *flags]``: every required flag, each optional one
    about a third of the time, and one choice of ``switches``."""
    def pair(name, values):
        return values.map(lambda v: ["--" + name, v])

    parts = [pair(name, values) for name, values in required.items()]
    parts += [st.one_of(st.just([]), st.just([]), pair(name, values))
              for name, values in optional.items()]
    parts.append(st.sampled_from(switches))
    return st.tuples(*parts).map(lambda lists: [command] + [a for part in lists for a in part])


_SOLVE = {"size": _SIZES, "matrix": _SYSTEM_FILES, "seed": _INTS, "tol": _NUMBERS,
          "max-iter": st.integers(-1, 200).map(str)}
_SS = {"ss-period": _INTS, "fault-rate": _NUMBERS, "flips": _INTS, "fault-seed": _INTS,
       "fault-bits": st.sampled_from(["sign", "exponent", "any", "sign-mantissa", "bad"])}
_ARGV = st.one_of(
    _argv("solve", {}, _SOLVE, [[], ["--json"]]),
    _argv("solve-ss", {}, {**_SOLVE, **_SS}, [[], ["--json"]]),
    _argv("iso", {"mode": st.sampled_from(["perf", "power", "capacity", "bogus"]),
                  "ref": _REFS, "target": _TARGETS},
          {"data": _DATA, "ss-fraction": _NUMBERS,
           "problem-class": st.sampled_from(["on_chip", "off_chip"])},
          [[], ["--hybrid"], ["--json"], ["--csv"], ["--hybrid", "--csv"]]),
    _argv("ets", {"size": _SIZES},
          {"ref": _REFS, "target": _TARGETS, "data": _DATA, "ss-fraction": _NUMBERS, "seed": _INTS,
           "mode": st.sampled_from(["iso-perf", "iso-power", "iso-capacity", "perf"]),
           "degradation": st.sampled_from(["0:40:10", "0:0:1", "5:1:1", "0:nan:1", "0:1:0"])},
          [[], ["--json"]]),
)


class TestArgvProperty:
    """Every argv ends in a documented exit code, never in an uncaught exception."""

    @settings(max_examples=60, deadline=None)
    @given(argv=_ARGV)
    def test_exit_code_is_documented(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in {0, 2, 64, 65, 66}, (argv, code, err.getvalue())
