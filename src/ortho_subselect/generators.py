"""Instance generators and the column-coherence report.

Three families of orthonormal-row matrices: flat +-1/sqrt(M) sign matrices
(Sylvester order, M a power of two), trigonometric rows (any M), which are
orthogonal as sampled and only normalized, and seeded Gaussian row spaces,
orthonormalized by QR. That QR is the one BLAS result written out; at large
shapes it rounds per BLAS thread count, so ``gen_random_ortho``'s bytes are
those of the package's default of one OpenBLAS thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OrthoSubselectError
from .linalg import OrthoRowMatrix, orthonormalize_rows


@dataclass(frozen=True)
class CoherenceReport:
    """Largest rescaled column norm t = sqrt(M/n) * max_j ||column j||."""

    t: float
    per_column_norms: tuple[float, ...]
    argmax_column: int  # 1-based; the first within a relative 1e-12 of the max


def _check_shape(n: int, m: int) -> None:
    if n < 1 or m < 1 or n > m:
        raise OrthoSubselectError(f"need 1 <= n <= M, got n={n}, M={m}")


def gen_walsh(n: int, m: int) -> OrthoRowMatrix:
    """First n rows of the M x M Sylvester sign matrix, scaled by 1/sqrt(M).

    Every entry is exactly +-1/sqrt(M), so the coherence t is 1.
    """
    if m < 1 or m & (m - 1):
        raise OrthoSubselectError(f"M must be a power of 2, got {m}")
    _check_shape(n, m)
    j = np.arange(m, dtype=np.int64)[:, None]
    i = np.arange(n, dtype=np.int64)[None, :]
    x = j & i  # M x n, so its transpose is already column-major
    for shift in (32, 16, 8, 4, 2, 1):  # parity of the popcount of i & j
        x = x ^ (x >> shift)
    signs = 1.0 - 2.0 * (x & 1)
    return OrthoRowMatrix(signs.T / math.sqrt(m))


def gen_trig(n: int, m: int) -> OrthoRowMatrix:
    """Sampled constant/cosine/sine rows at frequencies 0..ceil(n/2), each
    divided by its norm, so any M works.

    For n <= M the frequencies stay below the Nyquist frequency M/2, so the
    rows are orthogonal in exact arithmetic and need no QR; the norms come
    from numpy's own reduction, not BLAS, so the bytes are the same under
    any BLAS thread count, not only the package's default of one.
    """
    _check_shape(n, m)
    j = np.arange(m)
    rows = np.empty((n, m))
    for k in range(n):
        if k == 0:
            rows[k] = 1.0
        elif k % 2:
            rows[k] = np.cos(2.0 * np.pi * ((k + 1) // 2) * j / m)
        else:
            rows[k] = np.sin(2.0 * np.pi * (k // 2) * j / m)
    norms = np.sqrt(np.sum(rows * rows, axis=1))
    out = np.empty((n, m), order="F")  # the layout OrthoRowMatrix stores
    np.divide(rows, norms[:, None], out=out)
    return OrthoRowMatrix(out)


def gen_random_ortho(n: int, m: int, seed: int) -> OrthoRowMatrix:
    """Orthonormal basis of the row space of a seeded n x M Gaussian sample,
    by :func:`orthonormalize_rows`. Deterministic for a given seed >= 0."""
    _check_shape(n, m)
    if seed < 0:  # numpy's own rejection does not name the seed
        raise OrthoSubselectError(f"seed must be >= 0, got {seed}")
    return orthonormalize_rows(np.random.default_rng(seed).standard_normal((n, m)))


def coherence(a: OrthoRowMatrix) -> CoherenceReport:
    """Compute the coherence t and the per-column norms it maximizes over."""
    norms = np.sqrt(np.sum(a.mat * a.mat, axis=0))
    t = math.sqrt(a.m / a.n) * float(np.max(norms))
    # lowest column within rounding of the maximum, so exact ties pick the first
    jmax = int(np.argmax(norms >= np.max(norms) * (1.0 - 1e-12)))
    return CoherenceReport(t, tuple(norms.tolist()), jmax + 1)
