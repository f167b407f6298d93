import hashlib

import numpy as np
import pytest

import isocg.solvers
import oracles
from isocg import (
    DimensionMismatchError,
    FaultInjector,
    FaultPolicy,
    SolveConfig,
    SolverDivergedError,
    cg_solve,
    events_to_jsonl,
    gemv,
    gen_spd_diag_dominant,
    gen_spd_spectrum,
    sscg_solve,
)


def dd_problem(n, seed):
    a = gen_spd_diag_dominant(n, seed)
    return a, a @ np.ones(n)


def spectrum_problem(n, seed, kappa):
    a = gen_spd_spectrum(np.logspace(0.0, np.log10(kappa), n), seed)
    return a, a @ np.ones(n)


class TestPlainCg:
    def test_identity_system_one_iteration(self):
        x, report = cg_solve(np.eye(2), [5.0, -3.0])
        assert report.converged
        assert report.iterations == 1
        assert np.allclose(x, [5.0, -3.0], rtol=0, atol=1e-14)

    def test_hand_2x2_matches_inverse_oracle(self):
        a = [[4.0, 1.0], [1.0, 3.0]]
        b = [1.0, 2.0]
        x, report = cg_solve(a, b)
        expected = oracles.solve_2x2(a, b)
        assert report.converged
        assert report.iterations <= 2
        assert np.max(np.abs(x - expected)) <= 1e-10
        assert x[0] == pytest.approx(0.090909, abs=1e-6)
        assert x[1] == pytest.approx(0.636364, abs=1e-6)

    def test_dd64_converges_with_independent_residual(self):
        a, b = dd_problem(64, 7)
        x, report = cg_solve(a, b)
        assert report.converged
        residual = b - oracles.left_fold_gemv(a, x)
        assert np.linalg.norm(residual) / np.linalg.norm(b) <= 1e-8

    def test_zero_rhs(self):
        x, report = cg_solve(np.eye(4), np.zeros(4))
        assert report.converged
        assert report.iterations == 0
        assert np.array_equal(x, np.zeros(4))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cg_solve(np.eye(3), np.ones(2))
        with pytest.raises(DimensionMismatchError):
            cg_solve(np.ones((2, 3)), np.ones(3))

    @pytest.mark.parametrize("n,seed", [(16, 0), (16, 3), (64, 1), (256, 2)])
    def test_flops_exactly_iterations_times_2n2(self, n, seed):
        a, b = dd_problem(n, seed)
        _, report = cg_solve(a, b)
        assert report.flops == report.iterations * 2 * n * n

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [16, 64])
    def test_convergence_bound_and_monotonicity(self, n, seed):
        a, b = dd_problem(n, seed)
        _, report = cg_solve(a, b)
        assert report.converged
        assert report.iterations <= n + 5
        res = report.relative_residuals
        for i in range(len(res) - 2):
            assert res[i + 2] <= res[i] * (1.0 + 1e-14)

    def test_residual_history_consistent(self):
        a, b = dd_problem(32, 9)
        _, report = cg_solve(a, b)
        assert len(report.relative_residuals) == report.iterations
        assert report.relative_residuals[-1] <= 1e-8

    def test_deterministic_reports(self):
        a, b = dd_problem(48, 11)
        x1, r1 = cg_solve(a, b)
        x2, r2 = cg_solve(a, b)
        assert np.array_equal(x1, x2)
        assert r1 == r2

    def test_max_iter_cap(self):
        a, b = dd_problem(16, 2)
        _, report = cg_solve(a, b, SolveConfig(tol=1e-30, max_iter=3))
        assert not report.converged
        assert report.iterations == 3

    def test_divergence_carries_partial_report(self):
        with pytest.raises(SolverDivergedError) as excinfo:
            cg_solve(np.zeros((3, 3)), np.ones(3))
        err = excinfo.value
        assert err.report is not None
        assert not err.report.converged
        assert err.x is not None

    def test_injected_run_is_deterministic(self):
        a, b = spectrum_problem(64, 4, 1e3)
        cfg = SolveConfig(fault_policy=FaultPolicy(rate=0.2, seed=17), max_iter=200)
        x1, r1 = cg_solve(a, b, cfg)
        x2, r2 = cg_solve(a, b, cfg)
        assert np.array_equal(x1, x2)
        assert r1 == r2
        assert r1.rng_algorithm == "pcg64"

    def test_plain_cg_stagnates_under_injection(self):
        # silent corruption makes the recurrence lie: even if the flag says
        # converged, the true residual stays far above the tolerance
        a, b = spectrum_problem(128, 0, 1e3)
        _, clean = cg_solve(a, b)
        cfg = SolveConfig(
            max_iter=10 * clean.iterations,
            fault_policy=FaultPolicy(rate=0.1, bit_domain="sign_mantissa", seed=0),
        )
        x, report = cg_solve(a, b, cfg)
        assert oracles.true_relative_residual(a, x, b) > 1e-8


class TestSelfStabilizingCg:
    def test_fault_free_short_solve_matches_plain_cg(self):
        # converges before the first correction, so the trajectories agree
        a, b = dd_problem(64, 7)
        x_cg, r_cg = cg_solve(a, b)
        x_ss, r_ss = sscg_solve(a, b)
        assert r_cg.iterations < 10
        assert r_ss.iterations == r_cg.iterations
        assert np.array_equal(x_cg, x_ss)
        # identical up to the stop; the final recorded value differs only in
        # that the stabilized solver re-derives it from a verification product
        assert r_ss.relative_residuals[:-1] == r_cg.relative_residuals[:-1]
        assert r_ss.relative_residuals[-1] == pytest.approx(
            r_cg.relative_residuals[-1], rel=1e-9
        )

    def test_fault_free_with_corrections_converges(self):
        a, b = spectrum_problem(32, 0, 1e2)
        x_cg, r_cg = cg_solve(a, b)
        x_ss, r_ss = sscg_solve(a, b)
        assert r_cg.iterations > 10  # corrections actually fire
        assert r_ss.converged
        assert r_ss.relative_residuals[-1] <= 1e-8
        # identical trajectory up to the first correction step
        assert r_ss.relative_residuals[:9] == r_cg.relative_residuals[:9]
        assert oracles.true_relative_residual(a, x_ss, b) <= 1e-8

    def test_correction_gemv_accounting(self):
        a, b = spectrum_problem(32, 0, 1e2)
        _, report = sscg_solve(a, b)
        n = 32
        gemv_calls = report.flops // (2 * n * n)
        assert report.flops == gemv_calls * 2 * n * n
        k = report.iterations
        # one product per iteration, plus one per scheduled correction, plus
        # the final verification when the stop lands off-schedule
        expected = k + (k // 10 if k % 10 == 0 else k // 10 + 1)
        assert gemv_calls == expected

    def test_injected_dd128_fixture(self):
        a, b = dd_problem(128, 3)
        _, clean = sscg_solve(a, b)
        cfg = SolveConfig(fault_policy=FaultPolicy(rate=0.1, bit_domain="sign_mantissa", seed=3))
        x, report = sscg_solve(a, b, cfg)
        assert report.converged
        assert report.iterations >= clean.iterations
        assert oracles.true_relative_residual(a, x, b) <= 1e-8
        assert report.rng_algorithm == "pcg64"
        for event in report.fault_events:
            assert event.iteration is not None
            assert event.iteration % 10 != 0  # never on a reliable iteration

    def test_injected_conditioned_converges_truly(self):
        a, b = spectrum_problem(128, 5, 1e3)
        cfg = SolveConfig(fault_policy=FaultPolicy(rate=0.1, bit_domain="sign_mantissa", seed=5))
        x, report = sscg_solve(a, b, cfg)
        assert report.converged
        assert oracles.true_relative_residual(a, x, b) <= 1e-8

    def test_single_large_fault_is_absorbed(self):
        # a finite number of fault events cannot prevent convergence: the
        # next correction rebuilds a consistent state and CG restarts
        class OneShot(FaultInjector):
            def inject(self, v):
                self.call_index += 1
                if self.call_index != 3:
                    return v, []
                out = np.asarray(v, dtype=float).copy()
                out[0] = -1e6 * (out[0] if out[0] != 0.0 else 1.0)
                return out, []

        a, b = spectrum_problem(96, 1, 1e2)
        _, clean = sscg_solve(a, b)
        x, report = sscg_solve(a, b, injector=OneShot(FaultPolicy(rate=1.0, seed=0)))
        assert report.converged
        assert report.iterations >= clean.iterations
        assert oracles.true_relative_residual(a, x, b) <= 1e-8

    @pytest.mark.parametrize("ss_period, factor, message, k", [
        (2, 1e-300, "non-finite state after correction at iteration 2", 2),
        (2, 1e-310, "non-finite residual at iteration 1", 1),
        (10, 1e-300, "search direction degenerated at iteration 8 (p.Ap = inf)", 8),
    ])
    def test_each_divergence_path_reports_its_iteration(self, ss_period, factor, message, k):
        # Shrinking the first product makes alpha, and then the state, overflow.
        class FirstProductScaled(FaultInjector):
            def inject(self, v):
                self.call_index += 1
                return (v * factor if self.call_index == 1 else v), []

        a, b = dd_problem(8, 1)
        with pytest.raises(SolverDivergedError) as info:
            sscg_solve(a, b, SolveConfig(ss_period=ss_period),
                       injector=FirstProductScaled(FaultPolicy(rate=1.0, seed=0)))
        assert str(info.value) == message
        assert info.value.report.converged is False
        assert info.value.report.iterations == k
        assert info.value.x is not None

    def test_explicit_injector_argument(self):
        a, b = dd_problem(32, 1)
        injector = FaultInjector(FaultPolicy(rate=0.5, bit_domain="sign", seed=8))
        x, report = sscg_solve(a, b, injector=injector)
        assert report.converged
        assert injector.call_index > 0

    def test_rate_zero_policy_gives_zero_events(self):
        a, b = dd_problem(16, 6)
        cfg = SolveConfig(fault_policy=FaultPolicy(rate=0.0, seed=1))
        _, report = sscg_solve(a, b, cfg)
        assert report.converged
        assert report.fault_events == []

    def test_deterministic_reports(self):
        a, b = spectrum_problem(64, 2, 1e3)
        cfg = SolveConfig(fault_policy=FaultPolicy(rate=0.1, seed=21))
        x1, r1 = sscg_solve(a, b, cfg)
        x2, r2 = sscg_solve(a, b, cfg)
        assert np.array_equal(x1, x2)
        assert r1 == r2

    def test_max_iter_cap(self):
        a, b = dd_problem(16, 2)
        _, report = sscg_solve(a, b, SolveConfig(tol=1e-30, max_iter=7))
        assert not report.converged
        assert report.iterations == 7

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolveConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolveConfig(ss_period=0)


class TestSolveConfig:
    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            SolveConfig(tol=float("nan"))

    def test_infinite_tolerance_rejected(self):
        # an infinite tol would accept any residual after one iteration
        with pytest.raises(ValueError, match="tol"):
            SolveConfig(tol=float("inf"))


class TestKernelSeams:
    """The loop calls ``gemv``, ``dot`` and ``inject`` through the attributes a tracer wraps.

    A loop that bound a kernel locally would bypass the counting wrappers
    installed here, and the counts would fall short of the formulas.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"gemv": 0, "dot": 0, "inject": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(isocg.solvers, "gemv", counting("gemv", isocg.solvers.gemv))
        monkeypatch.setattr(isocg.solvers, "dot", counting("dot", isocg.solvers.dot))
        monkeypatch.setattr(FaultInjector, "inject", counting("inject", FaultInjector.inject))
        return counts

    @pytest.mark.parametrize("period", [3, 10])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_sscg_counts(self, calls, rate, period):
        n = 64
        a, b = spectrum_problem(n, 4, 1e3)
        cfg = SolveConfig(ss_period=period, fault_policy=FaultPolicy(rate=rate, seed=period))
        _, report = sscg_solve(a, b, cfg)
        assert report.converged
        k = report.iterations
        products = report.flops // (2 * n * n)
        assert calls["gemv"] == products
        assert calls["inject"] == k - k // period
        assert calls["dot"] == 2 + k + products - k // period

    @pytest.mark.parametrize("rate", [None, 0.1, 0.5])
    def test_cg_counts(self, calls, rate):
        n = 64
        a, b = dd_problem(n, 4)
        policy = None if rate is None else FaultPolicy(rate=rate, seed=3)
        _, report = cg_solve(a, b, SolveConfig(fault_policy=policy))
        k = report.iterations
        assert calls["gemv"] == k
        assert calls["inject"] == (0 if rate is None else k)
        assert calls["dot"] == 2 + 2 * k


class TestUnbufferedScope:
    """A solve leaves numpy's buffer size and error settings as it found them."""

    @pytest.mark.parametrize("solve", [cg_solve, sscg_solve])
    def test_state_restored_after_return(self, solve):
        a, b = spectrum_problem(100, 1, 1e3)
        with np.errstate(over="raise", under="warn"):
            np.setbufsize(4096)
            before = np.getbufsize(), np.geterr()
            _, report = solve(a, b)
            assert report.converged
            assert (np.getbufsize(), np.geterr()) == before

    @pytest.mark.parametrize("solve", [cg_solve, sscg_solve])
    def test_state_restored_after_divergence(self, solve):
        with np.errstate(over="raise", under="warn"):
            np.setbufsize(4096)
            before = np.getbufsize(), np.geterr()
            with pytest.raises(SolverDivergedError):
                solve(np.zeros((2, 2)), [1.0, 1.0])
            assert (np.getbufsize(), np.geterr()) == before


class TestGoldenDigest:
    """Iterates, reports, fault logs and divergence messages of both solvers, bit for bit."""

    # sha256 of ``_digest()``, recorded before the two solvers shared one loop.
    PINNED = "00ff6706c4f230cd06a0ed8ce278fd989acb09b33665063529022324fa170302"

    @staticmethod
    def _systems(n):
        dd = gen_spd_diag_dominant(n, 5)
        # The spectrum family is rounded to single precision and mirrored, so
        # that the low bits LAPACK leaves in it, which vary by machine, do not
        # reach the digest.  The rounding moves no eigenvalue by more than 1%.
        sp = gen_spd_spectrum(np.logspace(0.0, 3.0, n), 5).astype(np.float32).astype(np.float64)
        sp = np.triu(sp) + np.triu(sp, 1).T
        return [("dd", dd), ("spectrum", sp)]

    @staticmethod
    def _digest():
        h = hashlib.sha256()

        def feed(label, solve, a, b, cfg=None):
            h.update(label.encode())
            try:
                x, report = solve(a, b, cfg)
            except SolverDivergedError as exc:
                x, report = exc.x, exc.report
                h.update(str(exc).encode())
            h.update(np.asarray(x).tobytes())
            fields = (report.converged, report.iterations, report.flops, report.rng_algorithm)
            h.update(repr(fields).encode())
            h.update(np.array(report.relative_residuals).tobytes())
            h.update(events_to_jsonl(report.fault_events).encode())

        for n in (8, 64):
            for family, a in TestGoldenDigest._systems(n):
                b = gemv(a, np.ones(n))
                for rate in (None, 0.1, 0.5):
                    for period in (3, 10):
                        policy = None if rate is None else FaultPolicy(rate=rate, seed=n + period)
                        cfg = SolveConfig(ss_period=period, fault_policy=policy)
                        for solve in (cg_solve, sscg_solve):
                            label = f"{solve.__name__} n={n} {family} rate={rate} period={period}"
                            feed(label, solve, a, b, cfg)
        # Faults that may leave the finite range drive both solvers into
        # their divergence checks.
        a = TestGoldenDigest._systems(8)[1][1]
        b = gemv(a, np.ones(8))
        for seed in range(6):
            policy = FaultPolicy(rate=0.5, bit_domain="exponent", seed=seed, allow_nonfinite=True)
            for solve in (cg_solve, sscg_solve):
                with np.errstate(all="ignore"):
                    feed(f"{solve.__name__} nonfinite seed={seed}", solve, a, b,
                         SolveConfig(ss_period=3, fault_policy=policy))
        for solve in (cg_solve, sscg_solve):
            feed(f"{solve.__name__} zero matrix", solve, np.zeros((3, 3)), np.ones(3))
        return h.hexdigest()

    def test_digest_matches_pinned(self):
        assert self._digest() == self.PINNED
