"""Dense double-precision kernels and SPD test-matrix generators.

Every reduction in this module accumulates in a fixed left-to-right order,
so identical inputs produce bit-identical outputs run after run.  That
reproducibility is what makes fault-injection experiments replayable, and
it outranks raw speed here.

``dot`` is a strict serial prefix sum (``np.add.accumulate``, the loop behind
``cumsum``) that starts from +0.0.
``gemv`` reads A column by column from a :class:`PreparedMatrix`, which
stores Aᵀ C-contiguously, and contracts it with ``np.einsum("ji,j->i")``.
einsum zero-fills its output, keeps the contiguous output axis ``i``
innermost and walks the summed axis ``j`` outermost, in order, so each step
is ``out[i] = out[i] + cols[j, i] * x[j]`` for j = 0..n-1: every row of A
gets the same left fold over its columns as a plain loop, from +0.0, with
the multiply and the add rounded separately (numpy's sum-of-products loops
are built without fused multiply-add).  A single-row A would be reduced
along its contiguous axis, which numpy sums pairwise, so a single-row
product goes through ``dot`` instead.  An exactly symmetric A is its own
transpose and is used without a copy; the solvers prepare A once per
solve, not once per product.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, InvalidSpectrumError

__all__ = [
    "PreparedMatrix",
    "gemv",
    "dot",
    "gen_spd_diag_dominant",
    "gen_spd_spectrum",
]

# Tile edge of the symmetry scans and the generator's mirror.  64 was fastest
# for the bitwise scan and the mirror at n=512..4096.
_BLOCK = 64


_FLOAT64 = np.dtype(np.float64)
# Bound once: each CG iteration calls dot twice.
_multiply = np.multiply
_accumulate = np.add.accumulate


def as_vector(v) -> np.ndarray:
    """``v`` as a non-empty 1-d float64 array, converting only when needed.

    A 1-d ndarray (not a subclass) of native float64 with at least one
    element is returned as the same object, before any conversion is
    attempted; that is the object ``np.asarray`` returns for it too.  Every
    other input is converted with ``np.asarray(v, dtype=np.float64)`` and
    then checked.  Raises :class:`DimensionMismatchError` for input that is
    not 1-d or is empty.  :func:`gemv` and :func:`dot` test the same fast
    path inline, sparing a call per operand, and call this for the rest.
    """
    if type(v) is np.ndarray and v.dtype is _FLOAT64 and v.ndim == 1 and v.size > 0:
        return v
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


class PreparedMatrix:
    """A matrix laid out for :func:`gemv`: ``cols`` holds Aᵀ, C-contiguous.

    Row j of ``cols`` is column j of A.  An exactly symmetric C-contiguous
    float64 A is its own ``cols`` and is not copied, so the layout may share
    memory with A: do not modify A while the layout is in use.  Preparing an
    already prepared matrix returns the same layout.
    """

    __slots__ = ("cols",)

    def __init__(self, a) -> None:
        if isinstance(a, PreparedMatrix):
            self.cols = a.cols
            return
        m = as_matrix(a)
        self.cols = m if _is_symmetric(m) else m.T.copy()

    @property
    def shape(self) -> tuple[int, int]:
        return self.cols.shape[1], self.cols.shape[0]


def gemv(a, v) -> np.ndarray:
    """Matrix-vector product with left-to-right row accumulation.

    ``a`` is a :class:`PreparedMatrix` or anything :func:`as_matrix`
    accepts.  A plain matrix is prepared on every call, so callers that
    multiply by the same A repeatedly should prepare it once.
    """
    cols = a.cols if isinstance(a, PreparedMatrix) else PreparedMatrix(a).cols
    x = (v if type(v) is np.ndarray and v.dtype is _FLOAT64 and v.ndim == 1 and v.size > 0
         else as_vector(v))
    if cols.shape[0] != x.size:
        raise DimensionMismatchError(
            f"gemv: matrix has {cols.shape[0]} columns but vector has length {x.size}"
        )
    if cols.shape[1] == 1:
        # One row is one inner product.  einsum would reduce a one-row A along
        # its contiguous axis, which numpy sums pairwise.
        return np.array([dot(cols[:, 0], x)])
    return np.einsum("ji,j->i", cols, x)


def dot(u, v) -> float:
    """Inner product accumulated left to right, starting from +0.0."""
    a = (u if type(u) is np.ndarray and u.dtype is _FLOAT64 and u.ndim == 1 and u.size > 0
         else as_vector(u))
    b = (v if type(v) is np.ndarray and v.dtype is _FLOAT64 and v.ndim == 1 and v.size > 0
         else as_vector(v))
    if a.size != b.size:
        raise DimensionMismatchError(f"dot: lengths differ ({a.size} vs {b.size})")
    # The prefix sum starts from the first product; adding +0.0 turns its
    # -0.0 (every product a negative zero) into the +0.0 of a fold from zero,
    # and leaves every other value unchanged.
    return float(_accumulate(_multiply(a, b))[-1]) + 0.0


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
