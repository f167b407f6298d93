"""Conjugate Gradient solvers: the plain method and a self-stabilizing variant.

Both solve A x = b for symmetric positive definite A, starting from x = 0 and
stopping when the relative residual ||r|| / ||b|| drops below the configured
tolerance.  They run one iteration loop under two schedules, and the loop
tests convergence once per iteration, after either the recurrence or the
trusted recompute.  Plain CG sends every matrix-vector product through the
fault injector, if one is set.  The self-stabilizing variant periodically
rebuilds its state from a trustworthy residual so that silent corruption
injected into the product cannot derail convergence:

* every ``ss_period``-th iteration runs fully reliable (no injection) and
  appends a correction, r = b - A x, p = r, after the usual update; this
  costs a second matrix-vector product;
* whenever the recurrence residual claims convergence, the claim is
  verified against a reliably recomputed residual before the solver stops,
  because a corrupted recurrence can pass the test while the true residual
  is still large.

Both solvers accept A as an array or as a :class:`~isocg.linalg.PreparedMatrix`
and prepare it once per solve, so every product reuses one column layout.
:func:`load_system` reads a system from the JSON file ``isocg solve --matrix``
takes, and rejects an A that is not square, finite and symmetric to within
rounding.

Flop accounting covers the matrix-vector products only (2*n*n each); the
O(n) vector operations are deliberately ignored so that a plain solve
reports exactly ``iterations * 2 * n * n`` flops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _EXPORTS
from .errors import DimensionMismatchError, IsocgError, SolverDivergedError
from .faults import FaultEvent, FaultInjector, FaultPolicy
from .linalg import PreparedMatrix, _upper_tiles, as_square_matrix, as_vector, dot, gemv

__all__ = list(_EXPORTS["solvers"])

# Generous cap so heavily degraded runs never hit it: max_iter = _MAX_ITER_FACTOR * n.
_MAX_ITER_FACTOR = 50

# Largest relative asymmetry max|A - Aᵀ| / max|A| of a system file.
# gen_spd_spectrum leaves 6e-17 to 1.3e-16 at n = 8..2048.
_SYMMETRY_TOL = 1e-10


@dataclass
class SolveConfig:
    tol: float = 1.0e-8
    max_iter: int | None = None  # None resolves to 50 * n
    ss_period: int = 10
    fault_policy: FaultPolicy | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < math.inf:  # also rejects NaN
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.ss_period < 1:
            raise ValueError(f"ss_period must be >= 1, got {self.ss_period}")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    relative_residuals: list[float]
    flops: int
    fault_events: list[FaultEvent] = field(default_factory=list)
    rng_algorithm: str | None = None


def load_system(path) -> tuple[PreparedMatrix, np.ndarray]:
    """A x = b from a JSON file with fields ``A`` (square, symmetric) and optional ``b``
    (default A times ones).  Bad content raises :class:`IsocgError`; ``OSError`` passes through."""
    # Each form of the file is dropped once the next is built: the bytes, the
    # text and the parsed rows of A each take several times A's own 8 n^2 bytes.
    text = Path(path).read_bytes()
    try:
        text = text.decode("utf-8")  # UnicodeDecodeError is a ValueError
        doc = json.loads(text)
        del text
        a = as_square_matrix(doc["A"])
        del doc["A"]
        b = as_vector(doc["b"]) if "b" in doc else None
    except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        # JSONDecodeError is a ValueError.  An integer beyond float64's range
        # overflows, and arrays nested past the parser's depth limit recurse.
        raise IsocgError(f"bad system file {path}: {exc}") from exc
    a = PreparedMatrix(a)
    # JSON admits Infinity and NaN, which would only surface later as a diverged solve.
    if not np.isfinite(a.cols).all() or (b is not None and not np.isfinite(b).all()):
        raise IsocgError(f"bad system file {path}: non-finite entries")
    # Tile by tile, without the two n-by-n temporaries of a whole-matrix A - Aᵀ.
    m = a.cols
    asymmetry = max(np.abs(m[r, c] - m[c, r].T).max() for r, c in _upper_tiles(m.shape[0]))
    if asymmetry > _SYMMETRY_TOL * max(m.max(), -m.min()):  # max|A|, without |A|'s temporary
        raise IsocgError(
            f"bad system file {path}: A is not symmetric "
            f"(max|A - A^T| = {asymmetry:.3g} exceeds {_SYMMETRY_TOL:g} * max|A|)"
        )
    if b is None:
        b = gemv(a, np.ones(a.shape[0]))
    if b.size != a.shape[0]:
        raise IsocgError(
            f"bad system file {path}: A is {a.shape[0]}x{a.shape[1]} but b has length {b.size}"
        )
    return a, b


def _solve(
    a, b, cfg: SolveConfig | None, injector: FaultInjector | None, stabilize: bool
) -> tuple[np.ndarray, SolveReport]:
    """The CG iteration shared by both public solvers.

    Plain CG (``stabilize`` false) runs every product through the injector.
    Self-stabilizing CG keeps every ``cfg.ss_period``-th product reliable and
    follows it with a correction, and verifies a claimed convergence with a
    correction before it stops.  Each iteration tests convergence once, after
    either the recurrence or the trusted recompute.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    m, rhs = PreparedMatrix(a), as_vector(b)
    n = rhs.size
    if n != m.shape[0]:
        raise DimensionMismatchError(
            f"right-hand side has length {n}, matrix is {m.shape[0]}x{m.shape[0]}"
        )
    max_iter = cfg.max_iter if cfg.max_iter is not None else _MAX_ITER_FACTOR * n
    if injector is None and cfg.fault_policy is not None:
        injector = FaultInjector(cfg.fault_policy)
    algorithm = injector.algorithm if injector is not None else None
    products = 0
    events: list[FaultEvent] = []
    hist: list[float] = []
    x = np.zeros(n)

    def report(converged, k):
        return SolveReport(converged, k, hist, products * 2 * n * n, events, algorithm)

    def diverged(message, k):
        return SolverDivergedError(message, report=report(False, k), x=x)

    # An injected fault can overflow a product or a vector update.  The loop
    # raises SolverDivergedError on every non-finite scalar it branches on, so
    # numpy's floating-point warnings would only repeat that, on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        rho = dot(rhs, rhs)
        bnorm = math.sqrt(rho)
        if bnorm == 0.0:
            return x, report(True, 0)

        # No step updates a vector in place, so r and p may share memory.
        r = p = rhs
        for k in range(1, max_iter + 1):
            reliable = stabilize and k % cfg.ss_period == 0
            w = gemv(m, p)
            products += 1
            if injector is not None and not reliable:
                w, new_events = injector.inject(w)
                if new_events:
                    for e in new_events:
                        e.iteration = k
                    events.extend(new_events)
            denom = dot(p, w)
            if denom == 0.0 or not math.isfinite(denom):
                raise diverged(
                    f"search direction degenerated at iteration {k} (p.Ap = {denom})", k
                )
            alpha = rho / denom
            x = x + alpha * p
            if not reliable:
                r = r - alpha * w
                rho_new = dot(r, r)
                if not math.isfinite(rho_new):
                    raise diverged(f"non-finite residual at iteration {k}", k)
                rel = math.sqrt(rho_new) / bnorm
            # Trusted path, on schedule or to verify a claimed convergence (a
            # corrupted recurrence can claim it while the true residual is large):
            # recompute the residual and restart the direction from it.
            trusted = reliable or (stabilize and rel <= cfg.tol)
            if trusted:
                r = p = rhs - gemv(m, x)
                products += 1
                rho = dot(r, r)
                if reliable and not math.isfinite(rho):
                    raise diverged(f"non-finite state after correction at iteration {k}", k)
                rel = math.sqrt(rho) / bnorm
            hist.append(rel)
            if rel <= cfg.tol:
                return x, report(True, k)
            if not trusted:
                p = r + (rho_new / rho) * p
                rho = rho_new

        return x, report(False, max_iter)


def cg_solve(a, b, cfg: SolveConfig | None = None) -> tuple[np.ndarray, SolveReport]:
    """Plain Hestenes-Stiefel CG from x0 = 0.

    One matrix-vector product per iteration.  If ``cfg.fault_policy`` is
    set, every product runs through the injector (an entirely unreliable
    machine); the recurrence then tracks the corrupted updates, so the
    reported residuals may disagree with the true residual b - A x.
    """
    return _solve(a, b, cfg, None, stabilize=False)


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
    return _solve(a, b, cfg, injector, stabilize=True)
