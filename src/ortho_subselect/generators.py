"""Instance generators and the column-coherence report.

Three families of orthonormal-row matrices: flat +-1/sqrt(M) sign matrices
(Sylvester order, M a power of two), and trigonometric rows (any M) and
seeded Gaussian row spaces, both orthonormalized by QR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OrthoSubselectError
from .linalg import OrthoRowMatrix, orthonormalize_rows
from .rng import make_rng


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
    """Sampled constant/cosine/sine rows at frequencies 0..ceil(n/2),
    orthonormalized by QR so any M works."""
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
    return orthonormalize_rows(rows)


def gen_random_ortho(n: int, m: int, seed: int) -> OrthoRowMatrix:
    """Orthonormal basis of the row space of a seeded n x M Gaussian sample,
    by :func:`orthonormalize_rows`. Deterministic for a given seed."""
    _check_shape(n, m)
    return orthonormalize_rows(make_rng(seed).standard_normal((n, m)))


def coherence(a: OrthoRowMatrix) -> CoherenceReport:
    """Compute the coherence t and the per-column norms it maximizes over."""
    norms = np.sqrt(np.sum(a.mat * a.mat, axis=0))
    t = math.sqrt(a.m / a.n) * float(np.max(norms))
    # lowest column within rounding of the maximum, so exact ties pick the first
    jmax = int(np.argmax(norms >= np.max(norms) * (1.0 - 1e-12)))
    return CoherenceReport(t, tuple(norms.tolist()), jmax + 1)
