"""Instance generators.

Three families of orthonormal-row matrices: flat +-1/sqrt(M) sign matrices
(Sylvester order, M a power of two, built in place by Sylvester's doubling
with no memory beyond the matrix), trigonometric rows (any M), which are
orthogonal as sampled and only normalized, and seeded Gaussian row spaces,
orthonormalized by QR. That QR is the one BLAS result written out; at large
shapes it rounds per BLAS thread count, so ``gen_random_ortho``'s bytes are
those of the package's default of one OpenBLAS thread. A generated matrix's
coherence t is its ``OrthoRowMatrix.coherence``, computed on first use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OrthoSubselectError
from .linalg import OrthoRowMatrix, orthonormalize_rows


def _check_shape(n: int, m: int) -> None:
    if n < 1 or m < 1 or n > m:
        raise OrthoSubselectError(f"need 1 <= n <= M, got n={n}, M={m}")


def gen_walsh(n: int, m: int) -> OrthoRowMatrix:
    """First n rows of the M x M Sylvester sign matrix, scaled by 1/sqrt(M).

    Built by Sylvester's doubling straight into the M x n output, whose
    transpose is the column-major n x M matrix, so the construction needs no
    memory beyond the matrix. Every entry is exactly +-1/sqrt(M), so the
    coherence t is 1.
    """
    if m < 1 or m & (m - 1):
        raise OrthoSubselectError(f"M must be a power of 2, got {m}")
    _check_shape(n, m)
    out = np.empty((m, n))
    out[0] = 1.0
    i = np.arange(n)
    w = 1
    while w < m:  # row j + w is row j, negated in the columns i with bit w set
        np.multiply(out[:w], np.where(i & w, -1.0, 1.0), out=out[w : 2 * w])
        w *= 2
    out /= math.sqrt(m)
    return OrthoRowMatrix(out.T)


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
