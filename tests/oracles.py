"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against the textbook definition
(straight loops, normal equations, cyclic Jacobi, closed-form inverses)
rather than reusing the library's own code paths, so a bug in the package
cannot hide in its tests.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from isocg.faults import _MAX_REDRAWS, BIT_DOMAINS, FaultEvent


def left_fold_dot(u, v) -> float:
    """Inner product accumulated strictly left to right in Python floats."""
    acc = 0.0
    for a, b in zip(list(u), list(v), strict=True):
        acc += float(a) * float(b)
    return acc


def left_fold_gemv(a, v) -> np.ndarray:
    """Row-by-row matrix-vector product with left-to-right accumulation."""
    a = np.asarray(a, dtype=float)
    out = []
    for i in range(a.shape[0]):
        acc = 0.0
        row = a[i].tolist()
        for j, x in enumerate(list(v)):
            acc += row[j] * float(x)
        out.append(acc)
    return np.array(out)


def diag_dominant_matrix(n: int, seed: int) -> np.ndarray:
    """The diagonally dominant generator's matrix, built from whole-matrix temporaries."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)), 1)
    a = upper + upper.T
    np.fill_diagonal(a, a.sum(axis=1) + 1.0)
    return a


def solve_2x2(a, b):
    """Direct inverse of a 2x2 system."""
    (a11, a12), (a21, a22) = a
    det = a11 * a22 - a12 * a21
    return np.array(
        [
            (a22 * b[0] - a12 * b[1]) / det,
            (-a21 * b[0] + a11 * b[1]) / det,
        ]
    )


def sym_2x2_eigenvalues(a11, a12, a22):
    """Closed-form eigenvalues of [[a11, a12], [a12, a22]]."""
    half_trace = 0.5 * (a11 + a22)
    disc = math.sqrt((0.5 * (a11 - a22)) ** 2 + a12 * a12)
    return half_trace - disc, half_trace + disc


def jacobi_eigenvalues(a, max_sweeps=60, tol=1e-13) -> np.ndarray:
    """Eigenvalues of a symmetric matrix via cyclic Jacobi rotations."""
    m = np.array(a, dtype=float, copy=True)
    n = m.shape[0]
    if n == 1:
        return m.diagonal().copy()
    for _ in range(max_sweeps):
        off = np.max(np.abs(m - np.diag(np.diag(m))))
        if off <= tol * max(1.0, np.max(np.abs(np.diag(m)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if m[p, q] == 0.0:
                    continue
                tau = (m[q, q] - m[p, p]) / (2.0 * m[p, q])
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                col_p = m[:, p].copy()
                col_q = m[:, q].copy()
                m[:, p] = c * col_p - s * col_q
                m[:, q] = s * col_p + c * col_q
                row_p = m[p, :].copy()
                row_q = m[q, :].copy()
                m[p, :] = c * row_p - s * row_q
                m[q, :] = s * row_p + c * row_q
    return np.sort(np.diag(m))


def ols_normal_equations(xs, ys):
    """Straight-line least squares from the normal equations.

    Returns (intercept, slope, r_squared).
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    det = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / det
    intercept = (sy * sxx - sx * sxy) / det
    mean_y = sy / n
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return intercept, slope, r_squared


def pack_double(value: float) -> int:
    """IEEE-754 binary64 bit pattern of a float."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return bits


def unpack_double(bits: int) -> float:
    (value,) = struct.unpack("<d", struct.pack("<Q", bits))
    return value


def true_relative_residual(a, x, b) -> float:
    """||b - A x|| / ||b|| computed with numpy's own BLAS path."""
    a = np.asarray(a, dtype=float)
    r = np.asarray(b, dtype=float) - a @ np.asarray(x, dtype=float)
    return float(np.linalg.norm(r) / np.linalg.norm(b))


class ReferenceInjector:
    """The fault injector drawn through numpy's ``Generator`` methods.

    Same policy and output as :class:`isocg.FaultInjector`, with every draw
    made by ``default_rng(seed)``: ``random()`` for the rate test,
    ``integers(0, n)`` for the element, and ``integers(0, k)`` for one flip or
    ``choice(k, flips, replace=False)`` for several.  The package derives the
    same draws from PCG64's raw outputs; this is what it must equal.
    """

    def __init__(self, policy):
        self.policy = policy
        self.rng = np.random.default_rng(policy.seed)
        self.call_index = 0

    def _draw_positions(self, domain, count):
        if count == 1:
            return [domain[int(self.rng.integers(0, len(domain)))]]
        picks = self.rng.choice(len(domain), size=count, replace=False)
        return [domain[int(i)] for i in picks]

    def inject(self, v):
        vec = np.asarray(v, dtype=np.float64)
        self.call_index += 1
        if self.rng.random() >= self.policy.rate:
            return vec, []
        out = vec.copy()
        idx = int(self.rng.integers(0, out.size))
        before = pack_double(out[idx])
        domain = BIT_DOMAINS[self.policy.bit_domain]
        count = self.policy.flips_per_event
        for attempt in range(_MAX_REDRAWS + 2):
            if attempt == _MAX_REDRAWS + 1:
                domain = BIT_DOMAINS["sign_mantissa"]
                count = min(count, len(domain))
            positions = self._draw_positions(domain, count)
            after = before
            for p in positions:
                after ^= 1 << p
            if self.policy.allow_nonfinite or math.isfinite(unpack_double(after)):
                break
        out[idx] = unpack_double(after)
        return out, [FaultEvent(self.call_index, idx, sorted(positions), before, after)]
