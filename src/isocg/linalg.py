"""Dense double-precision kernels and SPD test-matrix generators.

Every reduction in this module accumulates in a fixed left-to-right order,
so identical inputs produce bit-identical outputs run after run.  That
reproducibility is what makes fault-injection experiments replayable, and
it outranks raw speed here.

``dot`` is a strict serial prefix sum (``cumsum``) that starts from +0.0.
``gemv`` reads A column by column from a :class:`PreparedMatrix`, which
stores Aᵀ C-contiguously, and folds ``_BLOCK`` columns at a time with
``np.add.reduce(..., axis=0)``.  numpy sums pairwise only along the fast
axis in memory; axis 0 of a C-contiguous block is the slow axis, so the
reduce adds the block's rows to the result one after another.  Carrying
the previous blocks' sum into the block's first row therefore gives every
row of A the same left fold over its columns as a plain loop would.  numpy
drops the length-1 axis of a single-row A's blocks and would sum them
pairwise, so a single-row product goes through ``dot`` instead.  An exactly
symmetric A is its own transpose and is used without a copy; the
solvers prepare A once per solve, not once per product.

The block multiply broadcasts a slice of x along each row of the block,
which numpy's default ufunc buffering turns into a copy of that operand.
The products therefore run inside an :func:`unbuffered` scope, which the
solvers enter once per solve and a ``gemv`` call on a plain matrix enters
per call.  The scope changes how numpy iterates, never the arithmetic or
its order: a prepared matrix multiplied outside any scope takes the
buffered path and gives the same bits, only more slowly.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import DimensionMismatchError, InvalidSpectrumError

__all__ = [
    "FlopCounter",
    "PreparedMatrix",
    "gemv",
    "dot",
    "axpy",
    "norm2",
    "gen_spd_diag_dominant",
    "gen_spd_spectrum",
]

# Columns of A folded per step of ``gemv``; also the tile edge of the symmetry
# scan, the transposing copy and the generator's mirror.  64 was fastest for
# all four at n=512..4096.
_BLOCK = 64

# numpy's ufunc buffer size inside ``unbuffered()``, in elements.  While the
# buffer holds two or more block rows (the default 8192 holds 16 at n=512),
# numpy copies the stride-0 ``x[s:s+k, None]`` operand of a block multiply
# into it before multiplying; below that it runs its scalar-times-row loop on
# the operands directly, 2-3x faster per block at n=512..2048.  A small buffer
# also splits reductions and the solvers' vector operations into more inner
# loops: per solve, 256 was as fast as 16 from n=200 up and 4-6% faster at
# n=64..128.
_BUFSIZE = 256


@contextlib.contextmanager
def unbuffered():
    """Scope in which ``gemv`` block products skip numpy's ufunc buffering.

    The buffer size lives in numpy's per-thread context, which ``np.errstate``
    saves and restores, so the scope is thread-safe and ends with the caller's
    buffer size and error settings.  It changes how numpy iterates, not what
    it computes: every result has the same bits inside and outside the scope.
    Entering it costs a few microseconds, so a solver enters it once per solve.
    """
    with np.errstate():
        np.setbufsize(_BUFSIZE)
        yield


class FlopCounter:
    """Running count of mathematical flops (a multiply and an add count as two).

    Only matrix-vector products feed the counter: vector operations are
    neglected, matching the 2*n*n per-iteration cost model used by the
    energy analysis.
    """

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, flops: int) -> None:
        if flops < 0:
            raise ValueError("flop increments must be non-negative")
        self.total += int(flops)

    def __repr__(self) -> str:
        return f"FlopCounter(total={self.total})"


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {a.shape}")
    if a.size == 0:
        raise DimensionMismatchError("vectors must have at least one element")
    return a


def as_matrix(a) -> np.ndarray:
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {m.shape}")
    if m.size == 0:
        raise DimensionMismatchError("matrices must have at least one element")
    return m


def as_square_matrix(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def _upper_tiles(n: int):
    """Row and column slices of the ``_BLOCK``-square tiles on and above the diagonal."""
    for i in range(0, n, _BLOCK):
        for j in range(i, n, _BLOCK):
            yield slice(i, i + _BLOCK), slice(j, j + _BLOCK)


def _is_symmetric(m: np.ndarray) -> bool:
    """Bitwise symmetry, checked tile by tile; stops at the first tile that differs."""
    if m.shape[0] != m.shape[1]:
        return False
    bits = m.view(np.uint64)
    return all(np.array_equal(bits[r, c], bits[c, r].T) for r, c in _upper_tiles(m.shape[0]))


def _transposed(m: np.ndarray) -> np.ndarray:
    """Aᵀ as a new C-contiguous array, copied tile by tile to stay in cache."""
    t = np.empty((m.shape[1], m.shape[0]))
    for i in range(0, m.shape[0], _BLOCK):
        for j in range(0, m.shape[1], _BLOCK):
            t[j : j + _BLOCK, i : i + _BLOCK] = m[i : i + _BLOCK, j : j + _BLOCK].T
    return t


class PreparedMatrix:
    """A matrix laid out for :func:`gemv`: ``cols`` holds Aᵀ, C-contiguous.

    Row j of ``cols`` is column j of A.  An exactly symmetric C-contiguous
    float64 A is its own ``cols`` and is not copied, so the layout may share
    memory with A: do not modify A while the layout is in use.  Preparing an
    already prepared matrix returns the same layout.

    ``gemv`` on a prepared matrix does not enter the :func:`unbuffered`
    scope itself, since the solvers hold one open for the whole solve.
    Used outside a solve, it takes numpy's buffered path: the same bits, but
    slower at n of about 200 and up.
    """

    __slots__ = ("cols",)

    def __init__(self, a) -> None:
        if isinstance(a, PreparedMatrix):
            self.cols = a.cols
            return
        m = as_matrix(a)
        self.cols = m if _is_symmetric(m) else _transposed(m)

    @property
    def shape(self) -> tuple[int, int]:
        return self.cols.shape[1], self.cols.shape[0]


def gemv(a, v, counter: FlopCounter | None = None) -> np.ndarray:
    """Matrix-vector product with left-to-right row accumulation.

    ``a`` is a :class:`PreparedMatrix` or anything :func:`as_matrix`
    accepts.  A plain matrix is prepared on every call and multiplied inside
    its own :func:`unbuffered` scope, so callers that multiply by the same A
    repeatedly should prepare it once and enter the scope once.
    Advances ``counter`` by 2*rows*cols (2*n*n for square matrices).
    """
    if isinstance(a, PreparedMatrix):
        return _fold_columns(a.cols, v, counter)
    cols = PreparedMatrix(a).cols  # outside the scope, where its scan and copy run faster
    with unbuffered():
        return _fold_columns(cols, v, counter)


def _fold_columns(cols: np.ndarray, v, counter: FlopCounter | None) -> np.ndarray:
    x = as_vector(v)
    if cols.shape[0] != x.size:
        raise DimensionMismatchError(
            f"gemv: matrix has {cols.shape[0]} columns but vector has length {x.size}"
        )
    rows = cols.shape[1]
    if counter is not None:
        counter.add(2 * cols.shape[0] * rows)
    if rows == 1:
        # One row is one inner product.  Its (k, 1) blocks would be reduced along
        # numpy's fast axis, where it sums pairwise.
        return np.array([dot(cols[:, 0], x)])
    buf = np.empty((min(_BLOCK, x.size), rows))
    acc = np.empty(rows)
    for s in range(0, x.size, _BLOCK):
        block = buf[: min(_BLOCK, x.size - s)]
        np.multiply(cols[s : s + _BLOCK], x[s : s + _BLOCK, None], out=block)
        if s:
            block[0] += acc  # acc + p == p + acc in IEEE arithmetic, so the fold is unchanged
        np.add.reduce(block, axis=0, out=acc)
    return acc


def dot(u, v) -> float:
    """Inner product accumulated left to right, starting from +0.0."""
    a = as_vector(u)
    b = as_vector(v)
    if a.size != b.size:
        raise DimensionMismatchError(f"dot: lengths differ ({a.size} vs {b.size})")
    # cumsum starts from the first product; adding +0.0 turns its -0.0 (every
    # product a negative zero) into the +0.0 of a fold from zero, and leaves
    # every other value unchanged.
    return float(np.multiply(a, b).cumsum()[-1]) + 0.0


def axpy(alpha: float, x, y) -> np.ndarray:
    """Return ``y + alpha * x``."""
    a = as_vector(x)
    b = as_vector(y)
    if a.size != b.size:
        raise DimensionMismatchError(f"axpy: lengths differ ({a.size} vs {b.size})")
    return b + alpha * a


def norm2(v) -> float:
    """Euclidean norm, computed from the fixed-order inner product."""
    a = as_vector(v)
    return math.sqrt(dot(a, a))


def gen_spd_diag_dominant(n: int, seed: int) -> np.ndarray:
    """Random symmetric strictly diagonally dominant matrix (hence SPD).

    Off-diagonal entries are uniform in [0, 1); each diagonal entry is the
    sum of the absolute off-diagonals in its row plus one.  Deterministic
    per (n, seed).
    """
    if n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n}")
    a = np.random.default_rng(seed).random((n, n))
    # Mirror the strict upper triangle into the lower one in place, with a
    # zero diagonal: the same bits as ``triu(R, 1) + triu(R, 1).T`` of the draw R,
    # without its two n-by-n temporaries.
    for r, c in _upper_tiles(n):
        if r == c:
            upper = np.triu(a[r, c], 1)
            a[r, c] = upper + upper.T
        else:
            a[c, r] = a[r, c].T
    np.fill_diagonal(a, a.sum(axis=1) + 1.0)
    return a


def gen_spd_spectrum(eigenvalues, seed: int) -> np.ndarray:
    """SPD matrix with the prescribed spectrum.

    Builds A = Q^T diag(lambda) Q where Q is the orthogonal factor of a
    seeded Gaussian matrix, i.e. a product of Householder reflections.
    The result is symmetric to machine tolerance and lets experiments
    control the condition number directly.
    """
    eigs = as_vector(eigenvalues)
    if eigs.size < 1:
        raise InvalidSpectrumError("spectrum must contain at least one eigenvalue")
    if not np.all(np.isfinite(eigs)) or np.any(eigs <= 0.0):
        raise InvalidSpectrumError("all eigenvalues must be finite and > 0")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((eigs.size, eigs.size)))
    return q.T @ (eigs[:, None] * q)
