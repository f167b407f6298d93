"""Acceptance suite: every published figure the toolkit must reproduce.

Each test covers one acceptance criterion at its stated tolerance and
prints a one-line verdict (visible with ``pytest -s`` or on failure).
Run with ``pytest tests/test_acceptance.py -v``.
"""

import numpy as np
import pytest

import oracles
from isocg import (
    ISO_CAPACITY,
    ISO_PERFORMANCE,
    ISO_POWER,
    FaultPolicy,
    HybridSystem,
    MachineSpec,
    PerfSample,
    SolveConfig,
    breakeven_degradation,
    cg_solve,
    flip_bits,
    float_to_bits,
    gen_spd_diag_dominant,
    gen_spd_spectrum,
    hybrid_gflops,
    hybrid_watts,
    iso_capacity_clusters,
    match,
    max_onchip_n,
    roofline_gflops,
    solve_hybrid_for_mode,
    sscg_solve,
    static_power_fit,
)

MIB = 1 << 20

RESILIENCE_SEEDS = tuple(range(20))
RESILIENCE_N = 128
RESILIENCE_SPECTRUM_DECADES = 3.0  # condition number 1e3


def verdict(number, title):
    print(f"[acceptance] criterion {number} ({title}): PASS")


@pytest.fixture(scope="module")
def hybrid_template(bundled_data):
    return HybridSystem(
        reliable=bundled_data.sample("a15", 4, 1.6),
        unreliable=bundled_data.sample("a7", 4, 0.5),
        n_unreliable=1.0,
    )


def plain_count(data, mode, ref, target):
    """Cluster count of ``isocg iso --mode perf|power``: ``match`` with no reliable share."""
    return match(mode, ref, target, ref_llc_bytes=data.spec(ref.machine).llc_bytes,
                 target_llc_bytes=data.spec(target.machine).llc_bytes).cluster_count


def test_criterion_1_roofline_reproduction():
    rows = [
        ("xeon", 44.0, 11.0, 11.0),
        ("a15", 5.4, 1.35, 1.35),
        ("a7", 2.07, 0.5175, 0.51),
    ]
    for name, bandwidth, exact, printed in rows:
        spec = MachineSpec(name, 4, 1.0, 2.0, MIB, bandwidth)
        computed = roofline_gflops(spec, arithmetic_intensity=0.25)
        assert computed == pytest.approx(exact, abs=1e-12)
        assert abs(round(computed, 2) - printed) <= 0.01 + 1e-9
    verdict(1, "roofline reproduction")


def test_criterion_2_iso_performance_reproduction(bundled_data):
    xeon = bundled_data.sample("xeon", 8, 2.0)
    a15 = bundled_data.sample("a15", 4, 1.6)
    a7 = bundled_data.sample("a7", 4, 0.5)

    n_a15 = plain_count(bundled_data, ISO_PERFORMANCE, xeon, a15)
    n_a7 = plain_count(bundled_data, ISO_PERFORMANCE, xeon, a7)
    assert n_a15 == pytest.approx(9.1, rel=0.02)
    assert n_a7 == pytest.approx(50.2, rel=0.02)

    power_ratio_a15 = n_a15 * a15.watts / xeon.watts
    power_ratio_a7 = n_a7 * a7.watts / xeon.watts
    assert power_ratio_a15 == pytest.approx(1.001, abs=0.01)
    assert power_ratio_a7 == pytest.approx(0.14, abs=0.01)
    verdict(2, "iso-performance reproduction")


def test_criterion_3_iso_power_reproduction(bundled_data):
    xeon = bundled_data.sample("xeon", 8, 2.0)
    a15 = bundled_data.sample("a15", 4, 1.6)
    a7 = bundled_data.sample("a7", 4, 0.5)

    a7_ratio = plain_count(bundled_data, ISO_POWER, xeon, a7) * a7.gflops / xeon.gflops
    a15_ratio = plain_count(bundled_data, ISO_POWER, xeon, a15) * a15.gflops / xeon.gflops
    assert a7_ratio == pytest.approx(7.0, abs=0.2)
    assert a15_ratio == pytest.approx(1.0, abs=0.02)
    verdict(3, "iso-power reproduction")


def test_criterion_4_hybrid_table_reproduction(bundled_data, hybrid_template):
    expected = {
        ISO_PERFORMANCE: (5.51, 2.09, 1.24),
        ISO_POWER: (38.85, 13.49, 5.44),
        ISO_CAPACITY: (4.0, 1.57, 1.05),
    }
    for mode, (n_exp, g_exp, p_exp) in expected.items():
        report = solve_hybrid_for_mode(
            mode,
            hybrid_template,
            ref_llc_bytes=bundled_data.spec("a15").llc_bytes,
            unreliable_llc_bytes=bundled_data.spec("a7").llc_bytes,
        )
        assert report.cluster_count == pytest.approx(n_exp, rel=0.02), mode
        assert report.achieved_gflops == pytest.approx(g_exp, rel=0.02), mode
        assert report.achieved_watts == pytest.approx(p_exp, rel=0.02), mode

    rounded = hybrid_template.with_clusters(6.0)
    assert hybrid_gflops(rounded) == pytest.approx(2.28, rel=0.02)
    assert hybrid_watts(rounded) == pytest.approx(1.31, rel=0.02)
    verdict(4, "hybrid table reproduction")


def test_criterion_5_breakeven_reproduction(bundled_data, hybrid_template):
    a15 = bundled_data.sample("a15", 4, 1.6)
    solved = solve_hybrid_for_mode(ISO_PERFORMANCE, hybrid_template)
    d = breakeven_degradation(a15, hybrid_template.with_clusters(solved.cluster_count))
    assert abs(100.0 * d - 340.0) <= 10.0
    verdict(5, "break-even reproduction at iso-performance")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "break-even degradation is not mode-invariant under the affine hybrid "
        "model that reproduces the summary table: at matched power the hybrid "
        "is G_h/G_ref = 6.43x faster, so its break-even is ~543% of extra "
        "iterations, while the iso-performance configuration breaks even at "
        "~339%; the two can only agree if the summary-table throughput row is "
        "abandoned.  The 3% cross-mode agreement target is therefore "
        "unattainable; the analyses agree only in the energy value at the "
        "crossing (the flat reference curve) and asymptotically in n."
    ),
)
def test_criterion_5_breakeven_mode_agreement(bundled_data, hybrid_template):
    a15 = bundled_data.sample("a15", 4, 1.6)
    d_perf = breakeven_degradation(
        a15,
        hybrid_template.with_clusters(
            solve_hybrid_for_mode(ISO_PERFORMANCE, hybrid_template).cluster_count
        ),
    )
    d_power = breakeven_degradation(
        a15,
        hybrid_template.with_clusters(
            solve_hybrid_for_mode(ISO_POWER, hybrid_template).cluster_count
        ),
    )
    print(
        "[acceptance] criterion 5 (break-even mode agreement): FAIL expected "
        f"(iso-perf {100 * d_perf:.1f}% vs iso-power {100 * d_power:.1f}%)"
    )
    assert d_power == pytest.approx(d_perf, rel=0.03)


def test_criterion_6_iso_capacity(bundled_data, hybrid_template):
    assert iso_capacity_clusters(20.0, 2.0) == 10.0
    assert iso_capacity_clusters(20.0, 0.5) == 40.0
    assert iso_capacity_clusters(2.0, 0.5) == 4.0
    assert max_onchip_n(2 * MIB) == 512

    report = solve_hybrid_for_mode(
        ISO_CAPACITY,
        hybrid_template,
        ref_llc_bytes=bundled_data.spec("a15").llc_bytes,
        unreliable_llc_bytes=bundled_data.spec("a7").llc_bytes,
    )
    assert report.cluster_count == 4.0
    assert report.ratios["ref_perf_vs_target"] == pytest.approx(1.33, rel=0.02)
    assert report.ratios["ref_power_vs_target"] == pytest.approx(5.22, rel=0.02)
    verdict(6, "iso-capacity")


def test_criterion_7_solver_correctness_properties():
    sizes = (16, 64, 256)
    for seed in range(50):
        n = sizes[seed % 3]
        a = gen_spd_diag_dominant(n, seed)
        b = a @ np.ones(n)
        x, report = cg_solve(a, b)
        assert report.converged, (n, seed)
        assert report.iterations <= n + 5, (n, seed)
        assert oracles.true_relative_residual(a, x, b) <= 1e-8, (n, seed)
        assert report.flops == report.iterations * 2 * n * n, (n, seed)
    verdict(7, "solver correctness on 50 seeded systems")


def _resilience_problem(seed):
    eigs = np.logspace(0.0, RESILIENCE_SPECTRUM_DECADES, RESILIENCE_N)
    a = gen_spd_spectrum(eigs, seed)
    return a, a @ np.ones(RESILIENCE_N)


def _policy(seed):
    return FaultPolicy(rate=0.1, flips_per_event=1, bit_domain="sign_mantissa", seed=seed)


def test_criterion_8_resilience_property():
    ss_converged = 0
    plain_failed = 0
    overheads = []
    for seed in RESILIENCE_SEEDS:
        a, b = _resilience_problem(seed)
        _, clean = cg_solve(a, b)
        assert clean.converged

        ss_cfg = SolveConfig(fault_policy=_policy(seed))
        x_ss, ss_report = sscg_solve(a, b, ss_cfg)
        truly = (
            ss_report.converged
            and oracles.true_relative_residual(a, x_ss, b) <= 1e-8
        )
        ss_converged += truly
        overheads.append(100.0 * (ss_report.iterations - clean.iterations) / clean.iterations)

        plain_cfg = SolveConfig(max_iter=10 * clean.iterations, fault_policy=_policy(seed))
        x_plain, plain_report = cg_solve(a, b, plain_cfg)
        reached = (
            plain_report.converged
            and oracles.true_relative_residual(a, x_plain, b) <= 1e-8
        )
        plain_failed += not reached

        # bit-reproducibility per seed, for both solvers
        x_ss2, ss_report2 = sscg_solve(a, b, ss_cfg)
        assert np.array_equal(x_ss, x_ss2) and ss_report == ss_report2, seed
        x_plain2, plain_report2 = cg_solve(a, b, plain_cfg)
        assert np.array_equal(x_plain, x_plain2) and plain_report == plain_report2, seed

    assert ss_converged == len(RESILIENCE_SEEDS)
    assert plain_failed >= 1
    assert all(o == o for o in overheads)  # overhead recorded for every run
    print(
        f"[acceptance] criterion 8 detail: SS-CG {ss_converged}/{len(RESILIENCE_SEEDS)} "
        f"converged, overhead {min(overheads):.0f}%..{max(overheads):.0f}%, "
        f"plain CG failed {plain_failed}/{len(RESILIENCE_SEEDS)}"
    )
    verdict(8, "resilience under injection")


def test_criterion_9_oracle_equivalence(rng):
    # CG against the closed-form 2x2 inverse
    a2 = [[4.0, 1.0], [1.0, 3.0]]
    b2 = [1.0, 2.0]
    x, _ = cg_solve(a2, b2)
    assert np.max(np.abs(x - oracles.solve_2x2(a2, b2))) <= 1e-10

    # least squares against the normal equations
    cores = [1, 2, 3, 4, 5, 6, 7, 8]
    watts = [4.0 + 1.3 * c + 0.02 * float(rng.standard_normal()) for c in cores]
    samples = [
        PerfSample("m", c, 2.0, "on_chip", 1.0, w, "user") for c, w in zip(cores, watts)
    ]
    fit = static_power_fit(samples)
    intercept, slope, r2 = oracles.ols_normal_equations(cores, watts)
    assert fit.intercept_watts == pytest.approx(intercept, abs=1e-12)
    assert fit.watts_per_core == pytest.approx(slope, abs=1e-12)
    assert fit.r_squared == pytest.approx(r2, abs=1e-12)

    # bit flips against raw pattern arithmetic, all 64 single-bit flips of 1.0
    base = oracles.pack_double(1.0)
    for k in range(64):
        assert float_to_bits(flip_bits(1.0, [k])) == base ^ (1 << k)
    verdict(9, "oracle equivalence")
