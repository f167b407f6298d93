import ast
import contextlib
import hashlib
import importlib.util
import inspect
import io
import itertools
import json
import pkgutil
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

    @pytest.mark.parametrize(
        "fraction,message",
        [("0", "isocg iso: error: argument --ss-fraction: must lie in (0, 1), got '0'"),
         ("0.5", "isocg iso: error: --ss-fraction requires --hybrid")],
        ids=["0", "0.5"],
    )
    def test_ss_fraction_without_hybrid_is_usage_error(self, capsys, fraction, message):
        with pytest.raises(SystemExit) as excinfo:
            run(["iso", "--mode", "perf", "--ref", "xeon:8:2.0", "--target", "a15:1.6",
                 "--ss-fraction", fraction])
        assert excinfo.value.code == 64
        assert capsys.readouterr().err.splitlines()[-1] == message

    @pytest.mark.parametrize("name", ["missing/", "missing/samples.csv"])
    def test_missing_data_path_is_named(self, capsys, tmp_path, name):
        data = f"{tmp_path}/{name}"
        code, out, err = run_cli(capsys, "iso", "--mode", "capacity", "--ref", "a15",
                                 "--target", "a7", "--data", data)
        assert code == 66
        assert out == ""
        assert err.startswith("isocg: cannot read data set: ")
        assert err.endswith(f": {data!r}\n")

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

    def test_no_breakeven_adds_no_row(self, capsys):
        # An a7 reference draws so little that the xeon hybrid is never cheaper.
        argv = ["ets", "--ref", "a7:4:0.5", "--target", "xeon:2.0"]
        doc = run_cli_json(capsys, *argv, "--json")
        assert doc["breakeven_percent"] is None
        assert [p["degradation_percent"] for p in doc["points"]] == pytest.approx(
            [10.0 * i for i in range(41)])
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert len(out.splitlines()) == 42


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


class TestSolveOutputDigest:
    """Exit codes, stdout and stderr of solve and solve-ss, generated and from --matrix
    files good and bad, byte for byte."""

    # sha256 of ``_digest(command)`` per command, split at b2b48d1 from one digest of both
    # that was recorded when usage errors found after parsing began to print the
    # subcommand's usage line; stdout and exit codes match the earlier pin.
    PINNED = {
        "solve": "7205a839eea34675a25b139f0c40d4efe4b26d229167517ace2f403f5be477ce",
        "solve-ss": "59bb295f800917e3e23e79ad15ebb58d81cb45f973fa8f7809848b3fb9a44728",
    }

    # --matrix fixtures, written into the working directory with "non-utf8.json";
    # "missing.json" is never written.
    SYSTEMS = {
        "good.json": '{"A": [[4, 1], [1, 3]], "b": [1, 2]}',
        "no-b.json": '{"A": [[4, 1, 0], [1, 3, 1], [0, 1, 5]]}',
        "zero-b.json": '{"A": [[2, 0], [0, 2]], "b": [0, 0]}',
        "big.json": json.dumps({"A": (np.eye(12) * 4 + np.ones((12, 12))).tolist()}),
        "zero-a.json": '{"A": [[0, 0], [0, 0]], "b": [1, 1]}',
        "rounding.json": json.dumps({"A": [[4.0, 1.0], [1.0 + 2.0**-50, 3.0]], "b": [1, 2]}),
        "not-json.json": "{not json",
        "nan-b.json": '{"A": [[2, 1], [1, 2]], "b": [1, NaN]}',
        "inf-a.json": '{"A": [[1, Infinity], [Infinity, 1]]}',
        "asymmetric.json": '{"A": [[4, 1], [0, 3]]}',
        "wrong-b.json": '{"A": [[4, 1], [1, 3]], "b": [1, 2, 3]}',
        "non-square.json": '{"A": [[1, 2, 3], [4, 5, 6]]}',
        "ragged.json": '{"A": [[1, 2], [3]]}',
        "vector-a.json": '{"A": [1, 2]}',
        "empty-a.json": '{"A": []}',
        "text-a.json": '{"A": [["a", "b"], ["c", "d"]]}',
        "matrix-b.json": '{"A": [[2, 1], [1, 2]], "b": [[1], [2]]}',
        "no-a.json": '{"b": [1, 2]}',
        "list.json": "[[1, 2], [2, 1]]",
    }

    @staticmethod
    def _argvs():
        for command in ("solve", "solve-ss"):
            for fmt in ([], ["--json"]):
                for size in ("1", "2", "8", "9", "33"):
                    for seed in ("0", "5"):
                        yield [command, "--size", size, "--seed", seed, *fmt]
                yield [command, "--size", "32", "--max-iter", "1", "--tol", "1e-30", *fmt]
                yield [command, "--size", "0", *fmt]
                yield [command, *fmt]
                for name in [*TestSolveOutputDigest.SYSTEMS, "non-utf8.json", "missing.json", "."]:
                    for size in ([], ["--size", "2"]):
                        yield [command, "--matrix", name, *size, *fmt]
        for fmt in ([], ["--json"]):
            for rate in ("0", "0.1", "0.5", "1"):
                for bits in ("sign-mantissa", "exponent", "any"):
                    for extra in ([], ["--flips", "2", "--fault-seed", "4"], ["--ss-period", "3"]):
                        yield ["solve-ss", "--size", "24", "--fault-rate", rate,
                               "--fault-bits", bits, *extra, *fmt]
            yield ["solve-ss", "--matrix", "big.json", "--fault-rate", "0.2", *fmt]
            yield ["solve-ss", "--size", "8", "--fault-rate", "nan", *fmt]
            yield ["solve-ss", "--size", "32", "--fault-rate", "1", "--fault-bits", "exponent",
                   "--flips", "3", "--ss-period", "50", *fmt]

    @staticmethod
    def _digest(command):
        h = hashlib.sha256()
        for argv in TestSolveOutputDigest._argvs():
            if argv[0] != command:
                continue
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = run(argv)
                except SystemExit as exc:
                    code = exc.code
            h.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        return h.hexdigest()

    def test_digest_matches_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in self.SYSTEMS.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "non-utf8.json").write_bytes(b'\xff{"A": [[2]]}')
        assert {command: self._digest(command) for command in ("solve", "solve-ss")} == self.PINNED


class TestMachineAddress:
    """A ref is machine or machine:cores:freq and a target machine or machine:freq;
    any other form is a usage error."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["ets", "--size", "16", "--target", "a7:2:0.5"],
             "isocg ets: error: argument --target: expected machine:freq, got 'a7:2:0.5'"),
            (["iso", "--mode", "capacity", "--ref", "a15:0.8", "--target", "a7"],
             "isocg iso: error: argument --ref: expected machine or machine:cores:freq, "
             "got 'a15:0.8'"),
        ],
        ids=["ets-target-with-cores", "iso-ref-without-cores"],
    )
    def test_exit_64_with_one_message(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert [line for line in err.splitlines() if "error" in line] == [message]


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


class TestLazyNamespace:
    """The package binds a public name on first use, from the module its table names."""

    def test_name_table_is_the_module_lists(self):
        library = [m.name for m in pkgutil.iter_modules(isocg.__path__)
                   if m.name not in ("cli", "__main__")]
        assert {module: list(names) for module, names in isocg._EXPORTS.items()} == {
            module: importlib.import_module(f"isocg.{module}").__all__ for module in library}
        assert isocg.__all__ == ["__version__", *itertools.chain(*isocg._EXPORTS.values())]
        assert len(isocg.__all__) == len(set(isocg.__all__))

    def test_every_name_is_its_module_attribute(self):
        for module, names in isocg._EXPORTS.items():
            for name in names:
                assert getattr(isocg, name) is getattr(getattr(isocg, module), name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from isocg import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(isocg.__all__)
        assert len(isocg.__all__) == 59

    def test_every_class_and_function_is_defined_in_its_module(self):
        # A name re-exported from another module is also an attribute of the module it is
        # filed under, so only ``__module__`` tells that it is filed in the wrong place.
        for module, names in isocg._EXPORTS.items():
            for name in names:
                value = getattr(isocg, name)
                if inspect.isclass(value) or inspect.isfunction(value):
                    assert value.__module__ == f"isocg.{module}", name

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError) as excinfo:
            isocg.nonexistent
        assert str(excinfo.value) == "module 'isocg' has no attribute 'nonexistent'"

    def test_dir_lists_every_name_and_submodule(self):
        assert {*isocg.__all__, *isocg._EXPORTS} <= set(dir(isocg))

    def test_submodule_after_bare_import(self):
        result = subprocess.run(
            [sys.executable, "-c", "import isocg\nprint(isocg.linalg.gemv is isocg.gemv)"],
            capture_output=True, text=True, check=True,
        )
        assert result.stdout == "True\n"


class TestImportCost:
    """``import isocg`` loads only the package, each public name only its own module, and the
    modules import only these at module level, so a new import shows here rather than as a
    slower start of every command."""

    MODULES = ("__init__", "errors", "linalg", "faults", "solvers", "machine", "iso")
    IMPORTS = {"__future__", "collections.abc", "configparser", "csv", "dataclasses",
               "importlib", "json", "math", "numpy", "os", "pathlib", "struct", "typing"}

    @staticmethod
    def loaded(code):
        """The package modules a fresh interpreter holds after ``code``, and whether numpy."""
        result = subprocess.run(
            [sys.executable, "-c",
             f"{code}\nimport sys\n"
             "print(*sorted(m for m in sys.modules if m.startswith('isocg')))\n"
             "print('numpy' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        modules, numpy = result.stdout.splitlines()
        names = {name.removeprefix("isocg").removeprefix(".") or "__init__"
                 for name in modules.split()}
        return names, numpy == "True"

    def test_import_isocg_loads_the_listed_modules(self):
        assert self.loaded("import isocg") == ({"__init__"}, False)

    def test_a_name_loads_its_module_and_is_bound(self):
        code = "import isocg\nisocg.gemv\nassert 'gemv' in vars(isocg)"
        assert self.loaded(code) == ({"__init__", "errors", "linalg"}, True)

    def test_import_cli_loads_every_module(self):
        assert self.loaded("import isocg.cli") == ({*self.MODULES, "cli"}, True)

    def test_module_level_imports_are_the_listed_ones(self):
        found = {}
        for module in self.MODULES:
            path = Path(isocg.__file__).with_name(f"{module}.py")
            nodes = list(ast.parse(path.read_text(encoding="utf-8")).body)
            while nodes:  # everything that runs at import; function bodies run later
                node = nodes.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    names = []
                for name in names:
                    found.setdefault(name, []).append(module)
                nodes.extend(ast.iter_child_nodes(node))
        assert {name: found[name] for name in set(found) - self.IMPORTS} == {}


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
            ["solve-ss", "--size", "8", "--flips", "0"],
            ["solve-ss", "--size", "8", "--fault-bits", "sign", "--flips", "2"],
            ["solve-ss", "--size", "8", "--fault-bits", "exponent", "--flips", "12"],
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


class TestUsageErrors:
    """A usage error found after parsing is reported as argparse reports its own: the
    subcommand's usage line first and ``isocg <cmd>: error: ...`` last, with exit 64."""

    CASES = [
        (["iso", "--mode", "perf", "--ref", "xeon:8", "--target", "a7:0.5"],
         "argument --ref: expected machine or machine:cores:freq, got 'xeon:8'"),
        # A malformed address is refused before the data set is read.
        (["iso", "--mode", "perf", "--ref", "xeon:8", "--target", "a7:0.5", "--data", "/nonexistent"],
         "argument --ref: expected machine or machine:cores:freq, got 'xeon:8'"),
        (["solve", "--size", "0"], "--size must be >= 1, got 0"),
        (["iso", "--mode", "perf", "--ref", "xeon:8:2.0", "--target", "a15:1.6",
          "--ss-fraction", "0.5"], "--ss-fraction requires --hybrid"),
        (["ets", "--size", "16", "--target", "a7:2:0.5"],
         "argument --target: expected machine:freq, got 'a7:2:0.5'"),
        (["ets", "--size", "0"], "--size must be >= 1, got 0"),
        # A bare address where the query needs operating points is also refused
        # before the data set is read.
        (["iso", "--mode", "perf", "--ref", "xeon", "--target", "a7", "--data", "/nonexistent"],
         "--mode perf/power requires --ref machine:cores:freq and --target machine:freq"),
        (["iso", "--mode", "capacity", "--ref", "a15", "--target", "a7", "--hybrid",
          "--data", "/nonexistent"],
         "--hybrid requires --ref machine:cores:freq and --target machine:freq"),
        (["iso", "--mode", "perf", "--ref", "a15:4:1.6", "--target", "a7:0.5", "--hybrid",
          "--ss-fraction", "abc"], "argument --ss-fraction: invalid float value: 'abc'"),
    ]

    @pytest.mark.parametrize("argv,message", CASES, ids=[" ".join(argv) for argv, _ in CASES])
    def test_exit_64_from_the_subcommand(self, argv, message):
        result = subprocess.run([sys.executable, "-m", "isocg", *argv],
                                capture_output=True, text=True)
        assert result.returncode == 64, result.stderr
        lines = result.stderr.splitlines()
        assert lines[0].startswith(f"usage: isocg {argv[0]} ")
        assert lines[-1] == f"isocg {argv[0]}: error: {message}"
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


class TestSystemFileBeyondLimits:
    """A --matrix file with an integer too large for a float64, or arrays nested past the
    JSON parser's depth limit, is bad data (65) on one line, not a traceback."""

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ('{"A": [[1%s]]}' % ("0" * 400), "int too large to convert to float"),
            ('{"A": [[2]], "b": [-1%s]}' % ("0" * 400), "int too large to convert to float"),
            ('{"A": %s%s}' % ("[" * 100_000, "]" * 100_000), "maximum recursion depth exceeded"),
            ('{"A": [[]]}', "matrices must have at least one element"),
        ],
        ids=["huge-int-in-A", "huge-int-in-b", "deep-nesting", "empty-A"],
    )
    def test_exit_65_without_traceback(self, tmp_path, text, message):
        path = tmp_path / "system.json"
        path.write_text(text)
        result = subprocess.run([sys.executable, "-m", "isocg", "solve", "--matrix", str(path)],
                                capture_output=True, text=True)
        assert result.returncode == 65, result.stderr
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith(f"isocg: bad system file {path}: {message}")
        assert result.stdout == ""


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


class TestExtremeOperatingPoints:
    """Finite operating points whose cluster count or achieved figures leave the float64
    range are infeasible (65), on one line, not a NaN, an Infinity or a traceback."""

    TINY_TARGET = [("samples.csv", "a7,4,0.5,on_chip,0.38,", "a7,4,0.5,on_chip,1e-310,")]
    # The a15 reference at 1e-300 GFLOPS and W, the a7 target at 1e300: the count underflows.
    FAR_APART = [("samples.csv", "a15,4,1.6,on_chip,2.1,5.49,", "a15,4,1.6,on_chip,1e-300,1e-300,"),
                 ("samples.csv", "a7,4,0.5,on_chip,0.38,0.1413,", "a7,4,0.5,on_chip,1e300,1e300,")]
    # An a7 LLC of 1e308 bytes makes the count against the xeon 2.1e-301, and 1e-30 GFLOPS
    # per cluster then underflows to 0.
    HUGE_LLC = [("machines.ini", "llc_bytes = 524288\n", "llc_bytes = 1" + "0" * 308 + "\n"),
                ("samples.csv", "a7,4,0.5,on_chip,0.38,", "a7,4,0.5,on_chip,1e-30,")]

    # An a7 target at 1e300 GFLOPS and 1 W: the hybrid's rate times 1e9 overflows, so its
    # energy underflows to 0.0 J.
    HUGE_TARGET = [("samples.csv", "a7,4,0.5,on_chip,0.38,0.1413,", "a7,4,0.5,on_chip,1e300,1,")]
    # The a15 reference at 1e-200 GFLOPS and 1e200 W: its GFLOPS per watt underflows to 0.0,
    # the divisor of efficiency_vs_ref.
    DIM_REF = [("samples.csv", "a15,4,1.6,on_chip,2.1,5.49,", "a15,4,1.6,on_chip,1e-200,1e200,")]

    @pytest.mark.parametrize(
        ("edits", "argv", "message"),
        [
            (TINY_TARGET, ["iso", "--mode", "perf", "--ref", "xeon:8:2.0", "--target", "a7:0.5",
                           "--json"], "iso_performance: cluster_count inf"),
            (TINY_TARGET, ["ets", "--size", "16"], "iso_performance: cluster_count inf"),
            (TINY_TARGET, ["iso", "--mode", "power", "--ref", "xeon:8:2.0", "--target", "a7:0.5",
                           "--json"], "iso_power: ref_perf_vs_target inf"),
            (TINY_TARGET, ["iso", "--mode", "perf", "--ref", "xeon:8:2.0", "--target", "a7:0.5",
                           "--hybrid", "--ss-fraction", "0.9999999999999999"],
             "iso_performance: cluster_count inf"),
            (FAR_APART, _ISO_PERF, "iso_performance: cluster_count 0.0"),
            (FAR_APART, ["ets", "--size", "16"], "iso_performance: cluster_count 0.0"),
            (HUGE_LLC, ["iso", "--mode", "capacity", "--ref", "xeon:8:2.0", "--target", "a7:0.5"],
             "iso_capacity: achieved 0.0 GFLOPS at 2.963275776e-302 W"),
            (HUGE_TARGET, ["ets", "--size", "16", "--mode", "iso-capacity", "--json"],
             "energy to solution 0.0 J"),
            (DIM_REF, _ISO_PERF, "iso_performance: ref GFLOPS/W 0.0"),
            (DIM_REF, ["iso", "--mode", "power", "--ref", "a15:4:1.6", "--target", "a7:0.5"],
             "iso_power: ref GFLOPS/W 0.0"),
            (DIM_REF, ["iso", "--mode", "capacity", "--ref", "a15:4:1.6", "--target", "a7:0.5"],
             "iso_capacity: ref GFLOPS/W 0.0"),
            (DIM_REF, ["ets", "--size", "16"], "iso_performance: ref GFLOPS/W 0.0"),
        ],
        ids=["tiny-target-iso-perf", "tiny-target-ets", "tiny-target-iso-power",
             "tiny-target-alpha-near-one", "far-apart-iso-perf", "far-apart-ets",
             "huge-llc-iso-capacity", "huge-target-ets-capacity", "dim-ref-iso-perf",
             "dim-ref-iso-power", "dim-ref-iso-capacity", "dim-ref-ets"],
    )
    def test_exit_65_on_one_line(self, capsys, tmp_path, edits, argv, message):
        save_sampleset(load_sampleset(default_data_dir()), tmp_path)
        for name, old, new in edits:
            path = tmp_path / name
            text = path.read_text()
            assert text.count(old) == 1
            path.write_text(text.replace(old, new))
        code, out, err = run_cli(capsys, *argv, "--data", str(tmp_path))
        assert code == 65
        assert out == ""
        assert err == f"isocg: {message} is outside the float64 range\n"


class TestBreakEvenOverflow:
    """A break-even degradation that is finite but overflows in percent is infeasible (65),
    on one line naming it, not a traceback."""

    # The a15 reference at 1e-150 GFLOPS and 1 W, the a7 target at 1e157 GFLOPS and 1 W: at
    # iso-power the hybrid is about 9e306 times as efficient as the reference.
    FAST_TARGET = [("samples.csv", "a15,4,1.6,on_chip,2.1,5.49,", "a15,4,1.6,on_chip,1e-150,1,"),
                   ("samples.csv", "a7,4,0.5,on_chip,0.38,0.1413,", "a7,4,0.5,on_chip,1e157,1,")]

    @pytest.mark.parametrize("mode", ["iso-power", "iso-capacity"])
    def test_exit_65_on_one_line(self, capsys, tmp_path, mode):
        save_sampleset(load_sampleset(default_data_dir()), tmp_path)
        for name, old, new in self.FAST_TARGET:
            path = tmp_path / name
            text = path.read_text()
            assert text.count(old) == 1
            path.write_text(text.replace(old, new))
        code, out, err = run_cli(capsys, "ets", "--size", "16", "--mode", mode, "--json",
                                 "--data", str(tmp_path))
        assert (code, out) == (65, "")
        assert err == (f"isocg: iso_{mode.removeprefix('iso-')}: breakeven_percent inf "
                       "is outside the float64 range\n")


class TestDataSetFieldErrors:
    """A data-set field that is missing, unreadable or over-long is bad data (65), on one line."""

    @pytest.mark.parametrize(
        ("name", "old", "new", "message"),
        [
            ("samples.csv", "\na7,4,0.5,", '\n"' + "a" * 131_073 + '",4,0.5,',
             "field larger than field limit (131072)"),
            ("machines.ini", "llc_bytes = 2097152\n", "llc_bytes = 100%\n",
             "machine 'a15': bad llc_bytes '100%'"),
            ("machines.ini", "llc_bytes = 2097152\n", "", "machine 'a15': missing llc_bytes"),
            ("machines.ini", "stream_bandwidth_gbs = 5.4", "stream_bandwidth_gbs = nan",
             "machine 'a15': frequencies and stream_bandwidth_gbs must be finite"),
            ("machines.ini", "llc_bytes = 2097152\n", "llc_bytes = 1" + "0" * 400 + "\n",
             "machine 'a15': llc_bytes must be positive and within the float64 range"),
        ],
        ids=["long-csv-field", "percent-value", "missing-key", "non-finite-value",
             "llc-beyond-float64"],
    )
    def test_exit_65_without_traceback(self, tmp_path, name, old, new, message):
        save_sampleset(load_sampleset(default_data_dir()), tmp_path)
        path = tmp_path / name
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        result = subprocess.run([sys.executable, "-m", "isocg", *_ISO_PERF, "--data", str(tmp_path)],
                                capture_output=True, text=True)
        assert result.returncode == 65, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr == f"isocg: {path}: {message}\n"
        assert result.stderr.replace(str(path), "").count("a15") <= 1  # the machine, named once
        assert result.stdout == ""


class TestMalformedMachinesFile:
    """A machines.ini line that configparser cannot read is bad data (65), named on one line."""

    @pytest.mark.parametrize(
        ("old", "new", "message"),
        [
            ("[a15]\n", "garbage\n[a15]\n", ":1: expected a [section] header, got 'garbage\\n'"),
            ("[a7]\n", "[a7]\ngarbage\nmore junk\n", ":9: expected key = value, got 'garbage\\n'"),
        ],
        ids=["before-first-section", "inside-a-section"],
    )
    def test_exit_65_on_one_line(self, tmp_path, old, new, message):
        save_sampleset(load_sampleset(default_data_dir()), tmp_path)
        path = tmp_path / "machines.ini"
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        result = subprocess.run([sys.executable, "-m", "isocg", *_ISO_PERF, "--data", str(tmp_path)],
                                capture_output=True, text=True)
        assert result.returncode == 65, result.stderr
        assert result.stderr == f"isocg: {path}{message}\n"
        assert result.stdout == ""


class TestDuplicateMachinesEntry:
    """A machine or a key given twice in machines.ini is bad data (65), with the file named once."""

    @pytest.mark.parametrize(
        ("old", "new", "message"),
        [
            ("[xeon]\n", "[a7]\n", ":15: duplicate machine 'a7'"),
            ("[a7]\n", "[a7]\nllc_bytes = 1\n", ":13: duplicate key 'llc_bytes' in machine 'a7'"),
        ],
        ids=["machine", "key"],
    )
    def test_exit_65_on_one_line(self, tmp_path, old, new, message):
        save_sampleset(load_sampleset(default_data_dir()), tmp_path)
        path = tmp_path / "machines.ini"
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        result = subprocess.run([sys.executable, "-m", "isocg", *_ISO_PERF, "--data", str(tmp_path)],
                                capture_output=True, text=True)
        assert result.returncode == 65, result.stderr
        assert result.stderr == f"isocg: {path}{message}\n"
        assert result.stdout == ""


class TestTracedSeams:
    """Every attribute the benchmark's tracer wraps exists, so a moved name fails here, not in
    ``perfbench/run.py --trace 1``."""

    def test_every_target_resolves(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert [(owner.__name__, attr) for owner, attr, *_ in spans._targets()
                if not hasattr(owner, attr)] == []


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


class TestMatrixFileBudget:
    """A --matrix file whose size alone predicts a load peak above physical memory is bad
    data (65), found before the file is read; --size is checked against the same memory."""

    def write_system(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text('{"A": [[4, 1], [1, 3]], "b": [1, 2]}')  # 36 bytes, a 54-byte peak
        return path

    @pytest.mark.parametrize("command", ["solve", "solve-ss"])
    def test_exit_65_before_reading(self, capsys, monkeypatch, tmp_path, command):
        def refuse(*args):
            raise AssertionError("the file was read")

        path = self.write_system(tmp_path)
        monkeypatch.setattr(isocg.cli, "_physical_memory", lambda: 53)
        monkeypatch.setattr(isocg.cli, "load_system", refuse)
        code, out, err = run_cli(capsys, command, "--matrix", str(path))
        assert code == 65
        assert out == ""
        assert err == (f"isocg: {path}: loading its 36 bytes needs at least 54 bytes, "
                       "more than the 53 bytes of physical memory\n")

    def test_a_file_at_the_budget_loads(self, capsys, monkeypatch, tmp_path):
        path = self.write_system(tmp_path)
        monkeypatch.setattr(isocg.cli, "_physical_memory", lambda: 54)
        code, out, err = run_cli(capsys, "solve", "--matrix", str(path))
        assert code == 0, err
        assert "converged: yes" in out

    def test_size_reads_the_same_memory(self, capsys, monkeypatch):
        monkeypatch.setattr(isocg.cli, "_physical_memory", lambda: 8 * 16**2 - 1)
        code, _, err = run_cli(capsys, "solve", "--size", "16")
        assert code == 64
        assert err.startswith("isocg: --size 16 needs 2048 bytes for A")


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
