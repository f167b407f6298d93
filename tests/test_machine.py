import numpy as np
import pytest

import oracles
from isocg import (
    InsufficientDataError,
    MachineSpec,
    PerfSample,
    SampleSet,
    SampleSetError,
    UnknownMachineError,
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

MIB = 1 << 20


def spec(name="box", bandwidth=10.0, llc=2 * MIB):
    return MachineSpec(name, 4, 1.0, 2.0, llc, bandwidth)


def sample(machine="box", cores=4, freq=2.0, gflops=1.0, watts=1.0, pclass="on_chip"):
    return PerfSample(machine, cores, freq, pclass, gflops, watts, "user")


class TestRoofline:
    def test_xeon_row(self):
        assert roofline_gflops(spec(bandwidth=44.0)) == pytest.approx(11.0, abs=1e-12)

    def test_a15_row(self):
        assert roofline_gflops(spec(bandwidth=5.4)) == pytest.approx(1.35, abs=1e-12)

    def test_a7_row_matches_printed_value_after_rounding(self):
        value = roofline_gflops(spec(bandwidth=2.07))
        assert value == pytest.approx(0.5175, abs=1e-12)
        assert abs(round(value, 2) - 0.51) <= 0.01 + 1e-9

    def test_linear_in_bandwidth_and_intensity(self):
        base = roofline_gflops(spec(bandwidth=3.0), arithmetic_intensity=0.5)
        assert roofline_gflops(spec(bandwidth=6.0), arithmetic_intensity=0.5) == 2 * base
        assert roofline_gflops(spec(bandwidth=3.0), arithmetic_intensity=1.0) == 2 * base

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(ValueError):
            roofline_gflops(spec(), arithmetic_intensity=0.0)


class TestStaticPowerFit:
    def test_exact_line(self):
        pts = [sample(cores=c, watts=w) for c, w in [(1, 10.0), (2, 12.0), (4, 16.0)]]
        fit = static_power_fit(pts)
        assert fit.intercept_watts == pytest.approx(8.0, abs=1e-12)
        assert fit.watts_per_core == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self, rng):
        cores = [1, 2, 3, 4, 5, 6, 7, 8]
        watts = [3.0 + 0.7 * c + 0.05 * float(rng.standard_normal()) for c in cores]
        pts = [sample(cores=c, watts=w) for c, w in zip(cores, watts)]
        fit = static_power_fit(pts)
        intercept, slope, r2 = oracles.ols_normal_equations(cores, watts)
        assert fit.intercept_watts == pytest.approx(intercept, abs=1e-12)
        assert fit.watts_per_core == pytest.approx(slope, abs=1e-12)
        assert fit.r_squared == pytest.approx(r2, abs=1e-12)

    def test_single_core_count_rejected(self):
        with pytest.raises(InsufficientDataError):
            static_power_fit([sample(cores=2, watts=5.0)])
        with pytest.raises(InsufficientDataError):
            static_power_fit([sample(cores=2, watts=5.0), sample(cores=2, watts=6.0)])

    def test_mixed_keys_rejected(self):
        with pytest.raises(ValueError):
            static_power_fit([sample(cores=1, freq=1.0), sample(cores=2, freq=2.0)])

    def test_tuple_unpacking(self):
        pts = [sample(cores=c, watts=2.0 * c) for c in (1, 2)]
        intercept, slope, r2 = static_power_fit(pts)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert slope == pytest.approx(2.0, abs=1e-12)


class TestScalingFactors:
    def test_identity(self):
        s = sample()
        assert tuple(scaling_factors(s, s)) == (1.0, 1.0, 1.0)

    def test_a15_frequency_scaling(self, bundled_data):
        low = bundled_data.sample("a15", 4, 0.8)
        high = bundled_data.sample("a15", 4, 1.6)
        factors = scaling_factors(low, high)
        assert factors.perf_factor == pytest.approx(1.7, abs=0.05)
        assert factors.freq_factor == pytest.approx(2.0, abs=1e-12)
        assert 3.12 <= factors.power_factor <= 3.20

    def test_a7_frequency_scaling(self, bundled_data):
        low = bundled_data.sample("a7", 4, 0.5)
        high = bundled_data.sample("a7", 4, 1.2)
        factors = scaling_factors(low, high)
        assert factors.perf_factor == pytest.approx(2.1, abs=0.05)
        assert factors.freq_factor == pytest.approx(2.4, abs=1e-12)
        assert 3.66 <= factors.power_factor <= 3.71

    def test_mismatched_keys(self):
        with pytest.raises(ValueError):
            scaling_factors(sample(machine="box"), sample(machine="other", cores=4))


class TestGflopsPerWatt:
    def test_a15_point(self):
        s = sample(gflops=2.1, watts=5.49)
        assert gflops_per_watt(s) == pytest.approx(2.1 / 5.49, rel=1e-15)
        assert round(gflops_per_watt(s), 4) == 0.3825

    def test_unit(self):
        assert gflops_per_watt(sample(gflops=1.0, watts=1.0)) == 1.0

    def test_a7_point(self):
        assert gflops_per_watt(sample(gflops=0.38, watts=0.1413)) == pytest.approx(2.69, abs=0.01)


class TestMaxOnchipN:
    def test_2mib_holds_512(self):
        assert max_onchip_n(2 * MIB) == 512

    def test_half_mib_holds_256(self):
        assert max_onchip_n(MIB // 2) == 256

    def test_20mib(self):
        assert max_onchip_n(20 * MIB) == 1619

    def test_exact_boundary(self):
        assert max_onchip_n(8 * 512 * 512) == 512
        assert max_onchip_n(8 * 512 * 512 - 1) == 511

    def test_too_small(self):
        with pytest.raises(ValueError):
            max_onchip_n(7)


class TestSampleSet:
    def test_bundled_fixture(self, bundled_data):
        assert sorted(bundled_data.specs) == ["a15", "a7", "xeon"]
        assert len(bundled_data.samples) == 5
        a15 = bundled_data.sample("a15", 4, 1.6)
        assert a15.gflops == 2.1 and a15.watts == 5.49
        assert a15.provenance == "paper"
        assert bundled_data.spec("a15").llc_bytes == 2 * MIB

    def test_unknown_machine_lists_available(self, bundled_data):
        with pytest.raises(UnknownMachineError) as excinfo:
            bundled_data.spec("i9")
        assert excinfo.value.available == ["a15", "a7", "xeon"]

    def test_unknown_sample(self, bundled_data):
        with pytest.raises(UnknownMachineError):
            bundled_data.sample("a15", 4, 9.9)

    def test_duplicate_sample_rejected(self):
        sset = SampleSet()
        sset.add_spec(spec())
        sset.add_sample(sample())
        with pytest.raises(SampleSetError):
            sset.add_sample(sample())

    def test_duplicate_spec_rejected(self):
        sset = SampleSet()
        sset.add_spec(spec("a7"))
        with pytest.raises(SampleSetError, match="^duplicate machine spec 'a7'$"):
            sset.add_spec(spec("a7"))

    def test_sample_for_unknown_machine_rejected(self):
        sset = SampleSet()
        with pytest.raises(UnknownMachineError):
            sset.add_sample(sample())

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineSpec("m", 4, 2.0, 1.0, MIB, 1.0)  # min > max
        with pytest.raises(ValueError):
            PerfSample("m", 4, 1.0, "in_cache", 1.0, 1.0)
        with pytest.raises(ValueError):
            PerfSample("m", 4, 1.0, "on_chip", 0.0, 1.0)
        with pytest.raises(ValueError):
            PerfSample("m", 4, 1.0, "on_chip", 1.0, 1.0, "guessed")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, value):
        for bad in ((value, 2.0, 10.0), (1.0, value, 10.0), (1.0, 2.0, value)):
            with pytest.raises(ValueError, match="must be finite"):
                MachineSpec("m", 4, bad[0], bad[1], MIB, bad[2])
        for bad in ((value, 1.0, 1.0), (1.0, value, 1.0), (1.0, 1.0, value)):
            with pytest.raises(ValueError, match="must be finite"):
                PerfSample("m", 4, bad[0], "on_chip", bad[1], bad[2])


class TestLoadSave:
    def test_round_trip_identity(self, bundled_data, tmp_path):
        save_sampleset(bundled_data, tmp_path / "out")
        again = load_sampleset(tmp_path / "out")
        assert again == bundled_data

    def test_save_is_byte_stable(self, bundled_data, tmp_path):
        save_sampleset(bundled_data, tmp_path / "one")
        once = load_sampleset(tmp_path / "one")
        save_sampleset(once, tmp_path / "two")
        for name in ("machines.ini", "samples.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_bundled_files_re_save_byte_for_byte(self, monkeypatch, tmp_path):
        monkeypatch.delenv("ISOCG_DATA_DIR", raising=False)
        save_sampleset(bundled_sampleset(), tmp_path)
        for name in ("machines.ini", "samples.csv"):
            assert (tmp_path / name).read_bytes() == (default_data_dir() / name).read_bytes()

    def test_names_with_comma_and_quote_round_trip(self, tmp_path):
        sset = SampleSet()
        for name in ("big,little", 'say "hi", ok'):
            sset.add_spec(spec(name))
            sset.add_sample(sample(machine=name))
        save_sampleset(sset, tmp_path)
        assert load_sampleset(tmp_path) == sset

    def test_machine_named_default_round_trips(self, tmp_path):
        sset = SampleSet()
        for name in ("DEFAULT", "box"):
            sset.add_spec(spec(name))
            sset.add_sample(sample(machine=name))
        save_sampleset(sset, tmp_path)
        assert load_sampleset(tmp_path) == sset

    def test_load_from_csv_path(self, bundled_data, tmp_path):
        save_sampleset(bundled_data, tmp_path)
        assert load_sampleset(tmp_path / "samples.csv") == bundled_data

    def _write(self, tmp_path, csv_body):
        (tmp_path / "machines.ini").write_text(
            "[box]\ncores_per_unit = 4\nfreq_min_ghz = 1.0\nfreq_max_ghz = 2.0\n"
            "llc_bytes = 1048576\nstream_bandwidth_gbs = 10.0\n"
        )
        (tmp_path / "samples.csv").write_text(csv_body)
        return tmp_path

    HEADER = "machine,active_cores,freq_ghz,problem_class,gflops,watts,provenance\n"

    def test_duplicate_row_names_line(self, tmp_path):
        body = self.HEADER + "box,4,2.0,on_chip,1.0,2.0,user\nbox,4,2.0,on_chip,1.0,2.0,user\n"
        with pytest.raises(SampleSetError) as excinfo:
            load_sampleset(self._write(tmp_path, body))
        assert ":3:" in str(excinfo.value)

    def test_unknown_machine_names_line(self, tmp_path):
        body = self.HEADER + "ghost,4,2.0,on_chip,1.0,2.0,user\n"
        with pytest.raises(SampleSetError) as excinfo:
            load_sampleset(self._write(tmp_path, body))
        assert ":2:" in str(excinfo.value)

    def test_parse_error_names_line(self, tmp_path):
        body = self.HEADER + "box,4,fast,on_chip,1.0,2.0,user\n"
        with pytest.raises(SampleSetError) as excinfo:
            load_sampleset(self._write(tmp_path, body))
        assert ":2:" in str(excinfo.value)

    def test_bad_header_rejected(self, tmp_path):
        body = "machine,cores\nbox,4\n"
        with pytest.raises(SampleSetError) as excinfo:
            load_sampleset(self._write(tmp_path, body))
        assert ":1:" in str(excinfo.value)

    def test_bad_machine_field(self, tmp_path):
        (tmp_path / "machines.ini").write_text(
            "[box]\ncores_per_unit = many\nfreq_min_ghz = 1.0\nfreq_max_ghz = 2.0\n"
            "llc_bytes = 1048576\nstream_bandwidth_gbs = 10.0\n"
        )
        (tmp_path / "samples.csv").write_text(self.HEADER)
        with pytest.raises(SampleSetError) as excinfo:
            load_sampleset(tmp_path)
        assert "box" in str(excinfo.value)

    def test_section_names_the_machine_over_a_name_key(self, tmp_path):
        self._write(tmp_path, self.HEADER)
        machines = tmp_path / "machines.ini"
        machines.write_text(machines.read_text() + "name = other\n")
        assert sorted(load_sampleset(tmp_path).specs) == ["box"]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_sampleset(tmp_path / "nope")

    def test_provenance_preserved(self, bundled_data, tmp_path):
        save_sampleset(bundled_data, tmp_path)
        again = load_sampleset(tmp_path)
        assert {s.provenance for s in again.samples} == {"paper", "derived"}

    def test_off_chip_class_round_trips(self, tmp_path):
        sset = SampleSet()
        sset.add_spec(spec())
        sset.add_sample(sample(pclass="on_chip", gflops=2.0))
        sset.add_sample(sample(pclass="off_chip", gflops=0.5))
        save_sampleset(sset, tmp_path)
        again = load_sampleset(tmp_path)
        assert again.sample("box", 4, 2.0, "off_chip").gflops == 0.5
        assert again.sample("box", 4, 2.0, "on_chip").gflops == 2.0
