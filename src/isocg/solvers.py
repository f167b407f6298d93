"""Conjugate Gradient solvers: the plain method and a self-stabilizing variant.

Both solve A x = b for symmetric positive definite A, starting from x = 0
and stopping when the relative residual ||r|| / ||b|| drops below the
configured tolerance.  The self-stabilizing variant periodically rebuilds
its state from a trustworthy residual so that silent corruption injected
into the matrix-vector product cannot derail convergence:

* every ``ss_period``-th iteration runs fully reliable (no injection) and
  appends a correction, r = b - A x, p = r, after the usual update; this
  costs a second matrix-vector product;
* whenever the recurrence residual claims convergence, the claim is
  verified against a reliably recomputed residual before the solver stops,
  because a corrupted recurrence can pass the test while the true residual
  is still large.

Both solvers accept A as an array or as a :class:`~isocg.linalg.PreparedMatrix`
and prepare it once per solve, so every product reuses one column layout.

Flop accounting covers the matrix-vector products only (2*n*n each); the
O(n) vector operations are deliberately ignored so that a plain solve
reports exactly ``iterations * 2 * n * n`` flops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, SolverDivergedError
from .faults import FaultEvent, FaultInjector, FaultPolicy
from .linalg import FlopCounter, PreparedMatrix, as_vector, dot, gemv

__all__ = ["SolveConfig", "SolveReport", "cg_solve", "sscg_solve"]

# Generous cap so heavily degraded runs never hit it: max_iter = _MAX_ITER_FACTOR * n.
_MAX_ITER_FACTOR = 50


@dataclass
class SolveConfig:
    tol: float = 1.0e-8
    max_iter: int | None = None  # None resolves to 50 * n
    ss_period: int = 10
    fault_policy: FaultPolicy | None = None

    def __post_init__(self) -> None:
        if not self.tol > 0.0:  # also rejects NaN
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.ss_period < 1:
            raise ValueError(f"ss_period must be >= 1, got {self.ss_period}")

    def resolved_max_iter(self, n: int) -> int:
        return self.max_iter if self.max_iter is not None else _MAX_ITER_FACTOR * n


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    relative_residuals: list[float]
    flops: int
    fault_events: list[FaultEvent] = field(default_factory=list)
    rng_algorithm: str | None = None


def _check_system(a, b) -> tuple[PreparedMatrix, np.ndarray]:
    m = PreparedMatrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    v = as_vector(b)
    if v.size != m.shape[0]:
        raise DimensionMismatchError(
            f"right-hand side has length {v.size}, matrix is {m.shape[0]}x{m.shape[0]}"
        )
    return m, v


def _diverged(message, hist, counter, events, k, x, algorithm):
    report = SolveReport(False, k, hist, counter.total, events, algorithm)
    return SolverDivergedError(message, report=report, x=x)


def cg_solve(a, b, cfg: SolveConfig | None = None) -> tuple[np.ndarray, SolveReport]:
    """Plain Hestenes-Stiefel CG from x0 = 0.

    One matrix-vector product per iteration.  If ``cfg.fault_policy`` is
    set, every product runs through the injector (an entirely unreliable
    machine); the recurrence then tracks the corrupted updates, so the
    reported residuals may disagree with the true residual b - A x.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    m, rhs = _check_system(a, b)
    n = rhs.size
    injector = FaultInjector(cfg.fault_policy) if cfg.fault_policy is not None else None
    algorithm = injector.algorithm if injector is not None else None

    bnorm = math.sqrt(dot(rhs, rhs))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(True, 0, [], 0, [], algorithm)

    counter = FlopCounter()
    events: list[FaultEvent] = []
    hist: list[float] = []
    x = np.zeros(n)
    r = rhs.copy()
    p = r.copy()
    rho = dot(r, r)

    for k in range(1, cfg.resolved_max_iter(n) + 1):
        w = gemv(m, p, counter)
        if injector is not None:
            w, new_events = injector.inject(w)
            for e in new_events:
                e.iteration = k
            events.extend(new_events)
        denom = dot(p, w)
        if denom == 0.0 or not math.isfinite(denom):
            raise _diverged(
                f"search direction degenerated at iteration {k} (p.Ap = {denom})",
                hist, counter, events, k, x, algorithm,
            )
        alpha = rho / denom
        x = x + alpha * p
        r = r - alpha * w
        rho_new = dot(r, r)
        if not math.isfinite(rho_new):
            raise _diverged(
                f"non-finite residual at iteration {k}",
                hist, counter, events, k, x, algorithm,
            )
        rel = math.sqrt(rho_new) / bnorm
        hist.append(rel)
        if rel <= cfg.tol:
            return x, SolveReport(True, k, hist, counter.total, events, algorithm)
        p = r + (rho_new / rho) * p
        rho = rho_new

    k = cfg.resolved_max_iter(n)
    return x, SolveReport(False, k, hist, counter.total, events, algorithm)


def sscg_solve(
    a,
    b,
    cfg: SolveConfig | None = None,
    injector: FaultInjector | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Self-stabilizing CG with periodic reliable correction.

    Iterations whose index is a multiple of ``cfg.ss_period`` run in
    reliable mode and finish with a state correction (second product).
    All other iterations are plain CG steps whose product goes through the
    injector.  Convergence is only declared after a reliable residual
    recomputation confirms it.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    m, rhs = _check_system(a, b)
    n = rhs.size
    if injector is None and cfg.fault_policy is not None:
        injector = FaultInjector(cfg.fault_policy)
    algorithm = injector.algorithm if injector is not None else None

    bnorm = math.sqrt(dot(rhs, rhs))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(True, 0, [], 0, [], algorithm)

    counter = FlopCounter()
    events: list[FaultEvent] = []
    hist: list[float] = []
    x = np.zeros(n)
    r = rhs.copy()
    p = r.copy()
    rho = dot(r, r)

    def correct(xk):
        # Trusted path: recompute the residual and restart the direction.
        rk = rhs - gemv(m, xk, counter)
        return rk, rk.copy(), dot(rk, rk)

    for k in range(1, cfg.resolved_max_iter(n) + 1):
        reliable = (k % cfg.ss_period == 0)
        w = gemv(m, p, counter)
        if injector is not None and not reliable:
            w, new_events = injector.inject(w)
            for e in new_events:
                e.iteration = k
            events.extend(new_events)
        denom = dot(p, w)
        if denom == 0.0 or not math.isfinite(denom):
            raise _diverged(
                f"search direction degenerated at iteration {k} (p.Ap = {denom})",
                hist, counter, events, k, x, algorithm,
            )
        alpha = rho / denom
        x = x + alpha * p

        if reliable:
            r, p, rho = correct(x)
            if not math.isfinite(rho):
                raise _diverged(
                    f"non-finite state after correction at iteration {k}",
                    hist, counter, events, k, x, algorithm,
                )
            rel = math.sqrt(rho) / bnorm
            hist.append(rel)
            if rel <= cfg.tol:
                return x, SolveReport(True, k, hist, counter.total, events, algorithm)
        else:
            r = r - alpha * w
            rho_new = dot(r, r)
            if not math.isfinite(rho_new):
                raise _diverged(
                    f"non-finite residual at iteration {k}",
                    hist, counter, events, k, x, algorithm,
                )
            rel = math.sqrt(rho_new) / bnorm
            if rel <= cfg.tol:
                # The recurrence may lie under injection: verify reliably,
                # and keep going from the corrected state if it does.
                r, p, rho = correct(x)
                rel = math.sqrt(rho) / bnorm
                hist.append(rel)
                if rel <= cfg.tol:
                    return x, SolveReport(True, k, hist, counter.total, events, algorithm)
            else:
                hist.append(rel)
                p = r + (rho_new / rho) * p
                rho = rho_new

    k = cfg.resolved_max_iter(n)
    return x, SolveReport(False, k, hist, counter.total, events, algorithm)
