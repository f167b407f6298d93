import hashlib
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isocg import (
    ISO_CAPACITY,
    ISO_PERFORMANCE,
    ISO_POWER,
    EtsAnalysis,
    HybridSystem,
    InfeasibleError,
    IsocgError,
    IsoReport,
    NoBreakEvenError,
    PerfSample,
    breakeven_degradation,
    ets,
    ets_analysis,
    ets_curve,
    hybrid_gflops,
    hybrid_watts,
    iso_capacity_clusters,
    match,
    solve_hybrid_for_mode,
)

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


def plain(mode, ref, target):
    """``match`` at alpha = 0, the route ``isocg iso --mode perf|power`` takes."""
    return match(mode, ref, target, ref_llc_bytes=MIB, target_llc_bytes=MIB).cluster_count


class TestClusterCounts:
    def test_iso_performance_a15(self, bundled_data, a15):
        xeon = bundled_data.sample("xeon", 8, 2.0)
        assert plain(ISO_PERFORMANCE, xeon, a15) == pytest.approx(9.1, rel=1e-12)

    def test_iso_performance_a7(self, bundled_data, a7):
        xeon = bundled_data.sample("xeon", 8, 2.0)
        count = plain(ISO_PERFORMANCE, xeon, a7)
        assert count == pytest.approx(50.2, rel=0.02)

    def test_self_ratio_is_one(self):
        assert plain(ISO_PERFORMANCE, ref_sample(3.3, 1.0), ref_sample(3.3, 2.0)) == 1.0
        assert plain(ISO_POWER, ref_sample(1.0, 7.7), ref_sample(2.0, 7.7)) == 1.0

    def test_iso_power_a7(self, bundled_data, a7):
        xeon = bundled_data.sample("xeon", 8, 2.0)
        count = plain(ISO_POWER, xeon, a7)
        assert count == pytest.approx(353.0, abs=1.0)
        perf_ratio = count * a7.gflops / xeon.gflops
        assert perf_ratio == pytest.approx(7.0, abs=0.2)

    def test_iso_capacity(self):
        assert iso_capacity_clusters(20.0, 2.0) == 10.0
        assert iso_capacity_clusters(20.0, 0.5) == 40.0
        assert iso_capacity_clusters(2 * MIB, MIB // 2) == 4.0


class TestArgumentRule:
    """A count, size, flops, GFLOPS or W argument outside (0, inf) raises a ValueError naming it."""

    CALLS = {
        "ref_llc_bytes": lambda v: iso_capacity_clusters(v, 1.0),
        "target_llc_bytes": lambda v: iso_capacity_clusters(1.0, v),
        "flops_total": lambda v: ets(v, 1.0, 1.0),
        "gflops": lambda v: ets(1.0, v, 1.0),
        "watts": lambda v: ets(1.0, 1.0, v),
        "n_unreliable": lambda v: HybridSystem(ref_sample(1.0, 1.0), ref_sample(1.0, 1.0), v),
    }

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_refuses_value_outside_open_range(self, name, value):
        with pytest.raises(ValueError) as excinfo:
            self.CALLS[name](value)
        assert str(excinfo.value) == f"{name} must be finite and > 0, got {value}"


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

    def test_infeasible_when_reliable_share_exceeds_budget(self, bundled_data, a15, a7):
        xeon = bundled_data.sample("xeon", 8, 2.0)
        with pytest.raises(InfeasibleError, match=re.escape(
                "reliable share alone draws 24.95 W, already at or above the 5.49 W budget")):
            solve_hybrid_for_mode(ISO_POWER, HybridSystem(xeon, a7, 1.0, 0.5), a15)

    def test_capacity_requires_llc(self, template):
        with pytest.raises(ValueError):
            solve_hybrid_for_mode(ISO_CAPACITY, template)

    def test_unknown_mode(self, template):
        with pytest.raises(ValueError):
            solve_hybrid_for_mode("iso_price", template)


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
        count = plain(ISO_POWER, xeon, a7)
        achieved = ref_sample(count * a7.gflops, xeon.watts, "achieved")
        recovered = plain(ISO_PERFORMANCE, achieved, a7)
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


class TestEtsRangeEdges:
    """Degradations and break-evens at the ends of the float64 range fail with the right type."""

    @pytest.mark.parametrize("d", [float("nan"), float("inf"), -0.1])
    def test_curve_rejects_non_finite_or_negative_degradation(self, template, a15, d):
        with pytest.raises(ValueError) as excinfo:
            ets_curve(a15, template.with_clusters(1.0), [0.0, d], 1.0e9)
        assert str(excinfo.value) == f"degradation must be finite and >= 0, got {d}"

    def test_no_break_even_when_the_hybrid_energy_underflows(self):
        # The hybrid's rate times 1e9 overflows, so its energy per GFLOP reads as 0.0 J if
        # computed as an energy; the figures the message prints are plain watts / gflops.
        ref = ref_sample(2.1, 5.49, "r")
        h = HybridSystem(ref, ref_sample(1e300, 1e306, "u"), 4.0, 0.1)
        with pytest.raises(NoBreakEvenError) as excinfo:
            breakeven_degradation(ref, h)
        assert str(excinfo.value) == (
            "hybrid energy (1e+06 J/GFLOP) already exceeds the reference (2.614 J/GFLOP)")

    def test_break_even_that_overflows_in_percent_is_infeasible(self):
        # d is about 9e306, finite, but 100 * d is not.
        ref, target = ref_sample(1e-150, 1.0, "r"), ref_sample(1e157, 1.0, "u")
        with pytest.raises(InfeasibleError) as excinfo:
            ets_analysis(ISO_POWER, ref, target, [0.0], 1.0e9,
                         ref_llc_bytes=MIB, target_llc_bytes=MIB, ss_fraction=0.1)
        assert str(excinfo.value) == "iso_power: breakeven_percent inf is outside the float64 range"


# Log-uniform over [1e-308, 1e308], the float64 range to within a factor of two at each end.
EXTREME = st.floats(-308.0, 308.0).map(lambda e: 10.0 ** e)
ALPHAS = st.one_of(st.sampled_from([0.0, 0.1, 2.0 / 11.0, 0.5, 1.0 - 2.0 ** -53]),
                   st.floats(0.0, 1.0, exclude_max=True))


def returned_figures(result):
    """The figures of an IsoReport, an ets_curve list or an EtsAnalysis."""
    if isinstance(result, IsoReport):
        return [result.cluster_count, result.achieved_gflops, result.achieved_watts,
                *result.ratios.values()]
    if isinstance(result, EtsAnalysis):
        return returned_figures(result.report) + returned_figures(result.curve)
    return [point.ets_joules for pair in result for point in pair]


class TestFloat64RangeProperty:
    """Over the whole float64 range a model query returns figures in (0, inf) or raises an
    IsocgError: no ZeroDivisionError, no ValueError for an argument the caller did not pass,
    no NaN."""

    @settings(max_examples=300, deadline=None)
    # 1e308 clusters at 10 W each overflow the hybrid's W: an InfeasibleError, not a
    # ValueError for an argument the caller never passed.
    @example(mode=ISO_PERFORMANCE, figures=[1.0, 1.0, 1.0, 10.0, 1.0, 1.0, 1e308, 1.0],
             alpha=0.0, percent=0.0)
    @given(mode=st.sampled_from([ISO_PERFORMANCE, ISO_POWER, ISO_CAPACITY]),
           figures=st.lists(EXTREME, min_size=8, max_size=8), alpha=ALPHAS,
           percent=st.floats(0.0, 1.0e4))
    def test_figures_in_range_or_isocg_error(self, mode, figures, alpha, percent):
        ref_g, ref_w, target_g, target_w, ref_llc, target_llc, n, flops = figures
        ref, target = ref_sample(ref_g, ref_w, "r"), ref_sample(target_g, target_w, "u")
        h = HybridSystem(ref, target, n, alpha)
        llc = {"ref_llc_bytes": ref_llc, "target_llc_bytes": target_llc}
        queries = {
            "match": lambda: match(mode, ref, target, **llc, ss_fraction=alpha),
            "solve_hybrid_for_mode": lambda: solve_hybrid_for_mode(
                mode, h, ref, ref_llc_bytes=ref_llc, unreliable_llc_bytes=target_llc),
            "ets_curve": lambda: ets_curve(ref, h, [0.0, percent / 100.0], flops),
            "ets_analysis": lambda: ets_analysis(mode, ref, target, [0.0, percent], flops, **llc,
                                                 ss_fraction=alpha),
        }
        for name, query in queries.items():
            try:
                result = query()
            except IsocgError:
                continue
            for figure in returned_figures(result):
                assert 0.0 < figure < math.inf, (name, result)
        try:
            d = breakeven_degradation(ref, h)
        except IsocgError:
            return
        assert 0.0 <= d < math.inf


class TestIsoReport:
    def test_hybrid_report_defaults_to_reliable_reference(self, template):
        # without a ref, the ratios are against the template's reliable cluster
        report = solve_hybrid_for_mode(
            ISO_CAPACITY, template, ref_llc_bytes=2 * MIB, unreliable_llc_bytes=MIB // 2
        )
        assert report.cluster_count == 4.0
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
            ISO_PERFORMANCE: r.gflops / t.gflops,
            ISO_POWER: r.watts / t.watts,
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


class TestHybridDigest:
    """The hybrid model's outputs over a grid of operating points, bit for bit."""

    # sha256 of ``_digest()``, recorded before the harmonic composition was deleted.
    PINNED = "20fabf9791cdcd099c6a5f52394ae6f6e1ce5d1a3e5a7c9132a5c358d9faf317"

    # (reliable, unreliable) pairs, as (machine, cores, freq).
    PAIRS = [(("a15", 4, 1.6), ("a7", 4, 0.5)), (("xeon", 8, 2.0), ("a15", 4, 1.6))]
    ALPHAS = [0.0, 0.1, 2.0 / 11.0, 0.5, 0.9]
    COUNTS = [1.0, 5.526315789473684, 38.85, 1000.0]

    @staticmethod
    def _digest(data):
        h = hashlib.sha256()
        for rel, unrel in TestHybridDigest.PAIRS:
            r, u = data.sample(*rel), data.sample(*unrel)
            llc = {"ref_llc_bytes": data.spec(rel[0]).llc_bytes,
                   "unreliable_llc_bytes": data.spec(unrel[0]).llc_bytes}
            for alpha in TestHybridDigest.ALPHAS:
                for n in TestHybridDigest.COUNTS:
                    hybrid = HybridSystem(r, u, n, alpha)
                    values = [hybrid_gflops(hybrid), hybrid_watts(hybrid)]
                    try:
                        values.append(breakeven_degradation(r, hybrid))
                    except NoBreakEvenError:
                        pass
                    for mode in (ISO_PERFORMANCE, ISO_POWER, ISO_CAPACITY):
                        try:
                            values.append(solve_hybrid_for_mode(mode, hybrid, r, **llc))
                        except InfeasibleError:
                            pass
                    h.update(repr((rel, unrel, alpha, n, values)).encode())
        return h.hexdigest()

    def test_digest_matches_pinned(self, bundled_data):
        assert self._digest(bundled_data) == self.PINNED


class TestReadmeLibraryBlock:
    """README's Library example runs and prints the figures its comments quote."""

    def test_block_runs_and_matches_its_comments(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S)
        assert "# 5.53 clusters" in block
        assert "# ~3.39" in block
        scope = {}
        exec(compile(block, "README.md", "exec"), scope)
        assert round(scope["iso"].cluster_count, 2) == 5.53
        assert round(scope["d"], 2) == 3.39
