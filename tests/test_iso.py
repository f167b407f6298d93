import json

import pytest

from isocg import (
    ISO_CAPACITY,
    ISO_PERFORMANCE,
    ISO_POWER,
    HybridSystem,
    InfeasibleError,
    NoBreakEvenError,
    PerfSample,
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
from isocg.iso import ISO_REPORT_COLUMNS

MIB = 1 << 20


def ref_sample(gflops, watts, machine="ref"):
    return PerfSample(machine, 4, 1.6, "on_chip", gflops, watts, "user")


@pytest.fixture
def a15(bundled_data):
    return bundled_data.sample("a15", 4, 1.6)


@pytest.fixture
def a7(bundled_data):
    return bundled_data.sample("a7", 4, 0.5)


@pytest.fixture
def template(a15, a7):
    return HybridSystem(reliable=a15, unreliable=a7, n_unreliable=1.0)


class TestClusterCounts:
    def test_iso_performance_a15(self, bundled_data, a15):
        xeon = bundled_data.sample("xeon", 8, 2.0)
        assert iso_performance_clusters(xeon.gflops, a15.gflops) == pytest.approx(9.1, rel=1e-12)

    def test_iso_performance_a7(self, bundled_data, a7):
        xeon = bundled_data.sample("xeon", 8, 2.0)
        count = iso_performance_clusters(xeon.gflops, a7.gflops)
        assert count == pytest.approx(50.2, rel=0.02)

    def test_self_ratio_is_one(self):
        assert iso_performance_clusters(3.3, 3.3) == 1.0
        assert iso_power_clusters(7.7, 7.7) == 1.0

    def test_iso_power_a7(self, bundled_data, a7):
        xeon = bundled_data.sample("xeon", 8, 2.0)
        count = iso_power_clusters(xeon.watts, a7.watts)
        assert count == pytest.approx(353.0, abs=1.0)
        perf_ratio = count * a7.gflops / xeon.gflops
        assert perf_ratio == pytest.approx(7.0, abs=0.2)

    def test_iso_capacity(self):
        assert iso_capacity_clusters(20.0, 2.0) == 10.0
        assert iso_capacity_clusters(20.0, 0.5) == 40.0
        assert iso_capacity_clusters(2 * MIB, MIB // 2) == 4.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            iso_performance_clusters(0.0, 1.0)
        with pytest.raises(ValueError):
            iso_power_clusters(1.0, -1.0)


class TestHybridModel:
    def test_gflops_iso_performance_row(self, template):
        assert hybrid_gflops(template.with_clusters(5.51)) == pytest.approx(2.09, abs=0.02)

    def test_gflops_iso_power_row(self, template):
        assert hybrid_gflops(template.with_clusters(38.85)) == pytest.approx(13.49, abs=0.1)

    def test_gflops_iso_capacity_row(self, template):
        assert hybrid_gflops(template.with_clusters(4.0)) == pytest.approx(1.57, abs=0.02)

    def test_watts_iso_performance_row(self, template):
        assert hybrid_watts(template.with_clusters(5.51)) == pytest.approx(1.24, abs=0.02)

    def test_watts_rounded_six_clusters(self, template):
        assert hybrid_watts(template.with_clusters(6.0)) == pytest.approx(1.31, abs=0.02)

    def test_watts_iso_capacity_row(self, template):
        assert hybrid_watts(template.with_clusters(4.0)) == pytest.approx(1.05, abs=0.02)

    def test_affine_in_cluster_count(self, template):
        g1 = hybrid_gflops(template.with_clusters(1.0))
        g2 = hybrid_gflops(template.with_clusters(2.0))
        g3 = hybrid_gflops(template.with_clusters(3.0))
        assert g3 - g2 == pytest.approx(g2 - g1, rel=1e-12)

    def test_validation(self, a15, a7):
        with pytest.raises(ValueError):
            HybridSystem(a15, a7, 0.0)
        with pytest.raises(ValueError):
            HybridSystem(a15, a7, 1.0, ss_fraction=1.0)
        with pytest.raises(ValueError):
            HybridSystem(a15, a7, 1.0, composition="geometric")


class TestSolveHybrid:
    def test_iso_performance(self, template, a15):
        report = solve_hybrid_for_mode(ISO_PERFORMANCE, template)
        assert report.cluster_count == pytest.approx(5.51, rel=0.01)
        assert report.achieved_gflops == pytest.approx(a15.gflops, rel=1e-12)

    def test_iso_power(self, template, a15):
        report = solve_hybrid_for_mode(ISO_POWER, template)
        assert report.cluster_count == pytest.approx(38.85, rel=0.02)
        assert report.achieved_watts == pytest.approx(a15.watts, rel=1e-12)

    def test_iso_capacity(self, template):
        report = solve_hybrid_for_mode(
            ISO_CAPACITY, template, ref_llc_bytes=2 * MIB, unreliable_llc_bytes=MIB // 2
        )
        assert report.cluster_count == 4.0
        assert report.ratios["ref_perf_vs_target"] == pytest.approx(1.33, abs=0.02)
        assert report.ratios["ref_power_vs_target"] == pytest.approx(5.22, rel=0.02)

    def test_inversion_is_exact(self, template, a15):
        perf = solve_hybrid_for_mode(ISO_PERFORMANCE, template)
        assert hybrid_gflops(template.with_clusters(perf.cluster_count)) == pytest.approx(
            a15.gflops, rel=1e-12
        )
        power = solve_hybrid_for_mode(ISO_POWER, template)
        assert hybrid_watts(template.with_clusters(power.cluster_count)) == pytest.approx(
            a15.watts, rel=1e-12
        )

    def test_efficiency_identity_at_iso_performance(self, template):
        # matching throughput makes the efficiency gain exactly the power saving
        report = solve_hybrid_for_mode(ISO_PERFORMANCE, template)
        assert report.ratios["efficiency_vs_ref"] == pytest.approx(
            1.0 / report.ratios["power_vs_ref"], rel=1e-12
        )

    def test_infeasible_when_reliable_share_exceeds_target(self, template):
        tiny = ref_sample(0.2, 0.5)  # below alpha * 2.1
        with pytest.raises(InfeasibleError):
            solve_hybrid_for_mode(ISO_PERFORMANCE, template, tiny)

    def test_capacity_requires_llc(self, template):
        with pytest.raises(ValueError):
            solve_hybrid_for_mode(ISO_CAPACITY, template)

    def test_unknown_mode(self, template):
        with pytest.raises(ValueError):
            solve_hybrid_for_mode("iso_price", template)

    def test_harmonic_reproduces_iso_performance(self, a15, a7):
        harmonic = HybridSystem(a15, a7, 1.0, composition="harmonic")
        report = solve_hybrid_for_mode(ISO_PERFORMANCE, harmonic)
        assert report.cluster_count == pytest.approx(5.51, rel=0.01)
        assert report.achieved_gflops == pytest.approx(a15.gflops, rel=1e-12)

    def test_harmonic_power_inversion(self, a15, a7):
        harmonic = HybridSystem(a15, a7, 1.0, composition="harmonic")
        report = solve_hybrid_for_mode(ISO_POWER, harmonic)
        solved = harmonic.with_clusters(report.cluster_count)
        assert hybrid_watts(solved) == pytest.approx(a15.watts, rel=1e-12)


class TestScaleInvariance:
    def test_gflops_scaling_leaves_counts_unchanged(self, a15, a7):
        for c in (0.5, 3.0, 10.0):
            scaled = HybridSystem(
                ref_sample(a15.gflops * c, a15.watts, "r"),
                ref_sample(a7.gflops * c, a7.watts, "u"),
                1.0,
            )
            base = HybridSystem(a15, a7, 1.0)
            n_scaled = solve_hybrid_for_mode(ISO_PERFORMANCE, scaled).cluster_count
            n_base = solve_hybrid_for_mode(ISO_PERFORMANCE, base).cluster_count
            assert n_scaled == pytest.approx(n_base, rel=1e-12)

    def test_watts_scaling_leaves_power_counts_unchanged(self, a15, a7):
        for c in (0.5, 3.0, 10.0):
            scaled = HybridSystem(
                ref_sample(a15.gflops, a15.watts * c, "r"),
                ref_sample(a7.gflops, a7.watts * c, "u"),
                1.0,
            )
            base = HybridSystem(a15, a7, 1.0)
            n_scaled = solve_hybrid_for_mode(ISO_POWER, scaled).cluster_count
            n_base = solve_hybrid_for_mode(ISO_POWER, base).cluster_count
            assert n_scaled == pytest.approx(n_base, rel=1e-12)

    def test_iso_power_and_performance_mutually_consistent(self, bundled_data, a7):
        xeon = bundled_data.sample("xeon", 8, 2.0)
        count = iso_power_clusters(xeon.watts, a7.watts)
        achieved_gflops = count * a7.gflops
        recovered = iso_performance_clusters(achieved_gflops, a7.gflops)
        assert recovered * a7.watts == pytest.approx(xeon.watts, rel=1e-12)


class TestEts:
    def test_one_gflop_one_watt(self):
        assert ets(1.0e9, 1.0, 1.0) == 1.0

    def test_linear_in_watts(self):
        assert ets(5.0e9, 2.0, 4.0) == 2.0 * ets(5.0e9, 2.0, 2.0)

    def test_cg_closed_form(self):
        k, n = 6, 512
        flops = k * 2 * n * n
        assert ets(flops, 2.1, 5.49) == pytest.approx(flops / 2.1e9 * 5.49, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ets(0.0, 1.0, 1.0)


class TestEtsCurve:
    def test_ratio_at_zero_degradation(self, template, a15):
        solved = solve_hybrid_for_mode(ISO_PERFORMANCE, template)
        hybrid = template.with_clusters(solved.cluster_count)
        ((ref_pt, hyb_pt),) = ets_curve(a15, hybrid, [0.0], 1.0e9)
        # equal throughput, so the energy ratio is just the power ratio
        assert hyb_pt.ets_joules / ref_pt.ets_joules == pytest.approx(
            hybrid_watts(hybrid) / a15.watts, rel=1e-12
        )
        assert hyb_pt.ets_joules / ref_pt.ets_joules == pytest.approx(0.226, abs=0.005)

    def test_reference_flat_hybrid_affine(self, template, a15):
        hybrid = template.with_clusters(5.51)
        curve = ets_curve(a15, hybrid, [0.0, 1.0, 2.0, 3.4], 2.5e9)
        ref_values = {rp.ets_joules for rp, _ in curve}
        assert len(ref_values) == 1
        base = curve[0][1].ets_joules
        for (_, hyb_pt), d in zip(curve, [0.0, 1.0, 2.0, 3.4]):
            assert hyb_pt.ets_joules == pytest.approx(base * (1.0 + d), rel=1e-12)

    def test_rejects_negative_degradation(self, template, a15):
        with pytest.raises(ValueError):
            ets_curve(a15, template.with_clusters(1.0), [-0.1], 1.0e9)


class TestBreakEven:
    def test_printed_operating_point(self, a15, a7):
        # hybrid pinned to exactly (2.1 GFLOPS, 1.24 W) against (2.1, 5.49)
        unreliable = ref_sample(2.1, (1.24 - 0.1 * 5.49) / 0.9, "u")
        h = HybridSystem(a15, unreliable, 1.0)
        assert hybrid_gflops(h) == pytest.approx(2.1, rel=1e-12)
        assert hybrid_watts(h) == pytest.approx(1.24, rel=1e-12)
        d = breakeven_degradation(a15, h)
        assert d == pytest.approx(5.49 / 1.24 - 1.0, rel=1e-12)
        assert round(d, 2) == 3.43

    def test_fixture_iso_performance(self, template, a15):
        solved = solve_hybrid_for_mode(ISO_PERFORMANCE, template)
        d = breakeven_degradation(a15, template.with_clusters(solved.cluster_count))
        assert abs(100.0 * d - 340.0) <= 10.0

    def test_equal_systems_break_even_at_zero(self, a15):
        h = HybridSystem(a15, ref_sample(a15.gflops, a15.watts, "u"), 1.0)
        assert breakeven_degradation(a15, h) == pytest.approx(0.0, abs=1e-12)

    def test_never_cheaper_raises(self, a15):
        pricey = ref_sample(a15.gflops, 10.0 * a15.watts, "u")
        with pytest.raises(NoBreakEvenError):
            breakeven_degradation(a15, HybridSystem(a15, pricey, 1.0))

    def test_iso_power_breakeven_is_throughput_gain(self, template, a15):
        # with the power budget matched, energy parity is reached exactly when
        # degradation cancels the throughput advantage
        solved = solve_hybrid_for_mode(ISO_POWER, template)
        hybrid = template.with_clusters(solved.cluster_count)
        d = breakeven_degradation(a15, hybrid)
        assert d == pytest.approx(hybrid_gflops(hybrid) / a15.gflops - 1.0, rel=1e-12)

    def test_crossing_matches_curve(self, template, a15):
        solved = solve_hybrid_for_mode(ISO_PERFORMANCE, template)
        hybrid = template.with_clusters(solved.cluster_count)
        d = breakeven_degradation(a15, hybrid)
        ((ref_pt, hyb_pt),) = ets_curve(a15, hybrid, [d], 3.0e9)
        assert hyb_pt.ets_joules == pytest.approx(ref_pt.ets_joules, rel=1e-12)


class TestIsoReport:
    def test_json_round_trip(self, template):
        report = solve_hybrid_for_mode(ISO_PERFORMANCE, template)
        doc = json.loads(report.to_json())
        assert doc["mode"] == ISO_PERFORMANCE
        assert doc["cluster_count"] == report.cluster_count
        assert set(doc["ratios"]) == {
            "perf_vs_ref",
            "power_vs_ref",
            "ref_perf_vs_target",
            "ref_power_vs_target",
            "efficiency_vs_ref",
        }

    def test_csv_row_matches_columns(self, template):
        report = solve_hybrid_for_mode(ISO_POWER, template)
        row = report.csv_row()
        assert len(row) == len(ISO_REPORT_COLUMNS)
        assert row[0] == ISO_POWER
        assert float(row[1]) == report.cluster_count

    def test_hybrid_report_defaults_to_reliable_reference(self, template):
        report = hybrid_report(ISO_CAPACITY, template.with_clusters(4.0))
        assert report.ratios["ref_perf_vs_target"] == pytest.approx(
            template.reliable.gflops / hybrid_gflops(template.with_clusters(4.0)), rel=1e-12
        )


# (machine, cores, freq) of the references and targets the matching tests pair up.
REFS = [("xeon", 8, 2.0), ("a15", 4, 1.6)]
TARGETS = [("a7", 4, 0.5), ("a15", 4, 1.6)]


def llc_bytes(data, ref, target):
    return {"ref_llc_bytes": data.spec(ref[0]).llc_bytes,
            "target_llc_bytes": data.spec(target[0]).llc_bytes}


class TestMatch:
    """``match`` is the hybrid model; at ss_fraction 0 it is the plain query, bit for bit."""

    @pytest.mark.parametrize("ref", REFS)
    @pytest.mark.parametrize("target", TARGETS)
    def test_plain_query_equals_closed_forms(self, bundled_data, ref, target):
        r, t = bundled_data.sample(*ref), bundled_data.sample(*target)
        llc = llc_bytes(bundled_data, ref, target)
        expected = {
            ISO_PERFORMANCE: iso_performance_clusters(r.gflops, t.gflops),
            ISO_POWER: iso_power_clusters(r.watts, t.watts),
            ISO_CAPACITY: iso_capacity_clusters(llc["ref_llc_bytes"], llc["target_llc_bytes"]),
        }
        for mode, count in expected.items():
            report = match(mode, r, t, **llc)
            assert report.mode == mode
            assert report.cluster_count == count
            assert report.achieved_gflops == count * t.gflops
            assert report.achieved_watts == count * t.watts
            assert report.ratios["perf_vs_ref"] == report.achieved_gflops / r.gflops
            assert report.ratios["power_vs_ref"] == report.achieved_watts / r.watts

    @pytest.mark.parametrize("mode", [ISO_PERFORMANCE, ISO_POWER, ISO_CAPACITY])
    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_hybrid_query_equals_solve_hybrid_for_mode(self, bundled_data, a15, a7, mode, alpha):
        llc = llc_bytes(bundled_data, ("a15",), ("a7",))
        expected = solve_hybrid_for_mode(
            mode, HybridSystem(a15, a7, 1.0, alpha), a15,
            ref_llc_bytes=llc["ref_llc_bytes"], unreliable_llc_bytes=llc["target_llc_bytes"],
        )
        assert match(mode, a15, a7, **llc, ss_fraction=alpha) == expected

    def test_capacity_without_operating_points(self, bundled_data, a7):
        llc = llc_bytes(bundled_data, ("xeon",), ("a7",))
        count = iso_capacity_clusters(llc["ref_llc_bytes"], llc["target_llc_bytes"])
        report = match(ISO_CAPACITY, None, None, **llc)
        assert (report.cluster_count, report.achieved_gflops, report.achieved_watts) == (
            count, None, None)
        assert report.ratios == {}
        report = match(ISO_CAPACITY, None, a7, **llc)
        assert (report.achieved_gflops, report.achieved_watts) == (count * a7.gflops,
                                                                  count * a7.watts)
        assert report.ratios == {}

    @pytest.mark.parametrize("mode", [ISO_PERFORMANCE, ISO_POWER])
    def test_perf_and_power_need_operating_points(self, bundled_data, a15, a7, mode):
        llc = llc_bytes(bundled_data, ("a15",), ("a7",))
        for ref, target in [(None, None), (a15, None), (None, a7)]:
            with pytest.raises(ValueError, match="needs the operating points"):
                match(mode, ref, target, **llc)

    def test_hybrid_capacity_needs_operating_points(self, bundled_data, a7):
        with pytest.raises(ValueError, match="needs the operating points"):
            match(ISO_CAPACITY, None, a7, **llc_bytes(bundled_data, ("a15",), ("a7",)),
                  ss_fraction=0.1)

    def test_hybrid_system_accepts_zero_reliable_share(self, a15, a7):
        assert HybridSystem(a15, a7, 1.0, ss_fraction=0.0).ss_fraction == 0.0
        for alpha in (-0.1, 1.0):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                HybridSystem(a15, a7, 1.0, ss_fraction=alpha)
