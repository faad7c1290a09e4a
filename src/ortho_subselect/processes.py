"""Monte-Carlo estimators and property samplers over subspace sections.

W is the row space of an ``OrthoRowMatrix`` A, checked once on entry.
Covers the sign-weighted quadratic supremum over W intersected with the
unit ball (spectral norm of the sign-compressed basis Gram matrix), Gaussian
projection norms (inf and weighted, from one pass), and sampled checks of the
fourth-moment quasimetric: sandwich, factor-4 triangle and ball convexity.

Estimator sums are exactly rounded (``math.fsum``), independent of order.
Draws keep their documented order; only the arithmetic on them is batched.
Every sampler draws and reduces in chunks of at most ``_CHUNK_ENTRIES``
drawn entries (or one row or hull, if larger), so its memory does not grow
with the sample or trial count. Per-trial generators come from
``rng.trial_rngs``, which seeds at most ``rng._SEED_CHUNK`` trials at a time.
The triangle and sandwich checks draw their tuples row by row, so a chunk
of ``_normal_blocks`` is a run of consecutive rows of one bulk draw, with at
most ``_CHUNK_ENTRIES`` entries per tuple member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OrthoSubselectError
from .linalg import OrthoRowMatrix
from .rng import trial_rngs

# Entries per chunk of draws in every sampler: keeps a chunk's arrays at
# 32 KiB each, whatever the sample or trial count.
_CHUNK_ENTRIES = 1 << 12

# check_ball_convexity's radius, fixed since small radii measure rounding:
# over seeds 0-3 (200 samples, dim 6) the ratio is stable to 4 decimals at
# 1e-4..1e-10, yet reads 1.71-3.87 at 1e-15 and 5.72-12.9 (> 4) at 3e-16.
_BALL_RADIUS = 0.3


@dataclass(frozen=True)
class ProcessEstimate:
    mean: float
    std_error: float
    trials: int
    q: float  # l1 -> l2 norm of the projection onto W: max_j ||P_W e_j|| = max ||A e_j||
    bound_ratio: float  # mean / (q * sqrt(ln M))
    seed: int


def _sign_sup(u: np.ndarray, s: np.ndarray) -> float:
    """Supremum over unit w in W of |sum_i s_i * w(i)^2|, unchecked.

    ``u`` is the C-ordered basis A^T and ``s`` holds M signs, each +-1.
    Writing w = A^T y reduces the supremum to the spectral norm of
    S = A diag(s) A^T, computed by the LAPACK symmetric eigensolver.
    """
    core = (u * s[:, None]).T @ u
    ev = np.linalg.eigvalsh(0.5 * (core + core.T))  # symmetrized exactly
    return max(abs(float(ev[0])), abs(float(ev[-1])))


def estimate_process(a: OrthoRowMatrix, trials: int, seed: int) -> ProcessEstimate:
    """Monte-Carlo mean of the sign-weighted supremum over independent draws.

    Trial k draws its signs from the generator seeded by
    child_seed(seed, k); the mean is compared against Q * sqrt(ln M) via
    ``bound_ratio``.
    """
    if trials < 2:
        raise OrthoSubselectError(f"need at least 2 trials, got {trials}")

    # Rademacher signs 2b - 1 are +-1, so the unchecked supremum applies
    values = np.asarray([
        _sign_sup(a.mat.T, 2.0 * rng.integers(0, 2, size=a.m).astype(np.float64) - 1.0)
        for rng in trial_rngs(seed, trials)
    ])
    mean = math.fsum(values) / trials
    var = math.fsum((values - mean) ** 2) / (trials - 1)
    std_error = math.sqrt(var / trials)
    q = float(np.max(a.column_norms))
    denom = q * math.sqrt(math.log(a.m))
    ratio = mean / denom if denom > 0.0 else math.inf
    return ProcessEstimate(mean, std_error, trials, q, ratio, seed)


def gaussian_sup_estimates(
    a: OrthoRowMatrix, weights, trials: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo means of ||P_W g||_inf and of the weighted norm
    (sum_i (P_W g)_i^2 * weights_i^2)^(1/2).

    g is standard Gaussian in R^M; trial k is seeded by child_seed(seed, k).
    Returns (mean_inf, mean_weighted). The inf-norm mean does not read the
    weights, so it is the same whatever weights are passed.
    """
    if trials < 1:
        raise OrthoSubselectError(f"need at least 1 trial, got {trials}")
    wt = np.asarray(weights, dtype=np.float64)
    if wt.shape != (a.m,):
        raise OrthoSubselectError(f"need {a.m} weights, got shape {wt.shape}")
    if not np.all(np.isfinite(wt)):
        raise OrthoSubselectError("weights must be finite")
    u = a.mat.T
    inf_vals = np.empty(trials)
    wvals = np.empty(trials)
    block = max(1, _CHUNK_ENTRIES // a.m)
    g = np.empty((min(block, trials), a.m))
    rngs = trial_rngs(seed, trials)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        # zip takes the rows first, so it draws one generator per row
        for row, rng in zip(g[: stop - start], rngs):
            rng.standard_normal(out=row)
        # einsum without ``optimize`` sums in its own loops, off BLAS, so the
        # rounding of these lines does not depend on the BLAS build or its
        # thread count
        proj = np.einsum("tn,mn->tm", np.einsum("tm,mn->tn", g[: stop - start], u), u)
        inf_vals[start:stop] = np.max(np.abs(proj), axis=1)
        wvals[start:stop] = np.sqrt(np.sum(proj * proj * wt * wt, axis=1))
    return math.fsum(inf_vals) / trials, math.fsum(wvals) / trials


def _d_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Quasimetric d(x, y) = (sum_i (x_i - y_i)^2 (x_i^2 + y_i^2))^(1/2)
    over the last axis."""
    return np.sqrt(np.sum((x - y) ** 2 * (x * x + y * y), axis=-1))


def _max_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """Largest num / den over the entries with den > 0 (0 if there are none)."""
    live = den > 0.0
    return float(np.max(num[live] / den[live], initial=0.0))


def _triangle_ratio(w: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Largest d(w, v) / (d(w, u) + d(u, v)) over rows with a positive sum."""
    return _max_ratio(_d_batch(w, v), _d_batch(w, u) + _d_batch(u, v))


def _normal_blocks(rng: np.random.Generator, blocks: int, samples: int, dim: int):
    """Yield rng.standard_normal((samples, blocks, dim)) as row chunks.

    Each chunk is a ``(blocks, rows, dim)`` transposed view of one reused
    buffer, with rows at most ``max(1, _CHUNK_ENTRIES // dim)``; consume it
    before the next. Drawing into consecutive ``out=`` slices consumes the
    stream exactly as one bulk call does.
    """
    rows = max(1, _CHUNK_ENTRIES // dim)
    buf = np.empty((min(rows, samples), blocks, dim))
    for start in range(0, samples, rows):
        chunk = buf[: min(rows, samples - start)]
        rng.standard_normal(out=chunk)
        yield chunk.transpose(1, 0, 2)


def check_sandwich(samples: int, dim: int, seed: int) -> float:
    """Worst dtilde(w, v) / (sqrt(2) d(w, v)) over sampled Gaussian pairs
    with d > 0 (0 if there are none), where dtilde(w, v) =
    (sum_i (w_i^2 - v_i^2)^2)^(1/2); the sandwich bound keeps it <= 1.

    Pair i is row i of standard_normal((samples, 2, dim)), as (w_i, v_i);
    ``_normal_blocks`` streams them in chunks.
    """
    if samples < 0 or dim < 1:
        raise OrthoSubselectError("need samples >= 0 and dim >= 1")
    worst = 0.0
    for x, y in _normal_blocks(np.random.default_rng(seed), 2, samples, dim):
        dtilde = np.sqrt(np.sum((x * x - y * y) ** 2, axis=-1))
        worst = max(worst, _max_ratio(dtilde, math.sqrt(2.0) * _d_batch(x, y)))
    return worst


def check_quasi_triangle(samples: int, dim: int, seed: int) -> float:
    """Worst observed d(w, v) / (d(w, u) + d(u, v)) over sampled triples
    with a positive denominator (0 if there are none).

    Samples Gaussian triples plus a 1% batch of adversarial near-collinear
    triples (w, w + delta, w + 2 delta) with large coordinates and tiny
    increments. The generalized triangle inequality bounds the ratio by 4.
    The stream is that of the bulk draws standard_normal((samples, 3, dim)),
    row i being (w_i, u_i, v_i), then standard_normal((n_adv, 2, dim)), row i
    being (base_i, delta_i), with n_adv = samples // 100 or 1;
    ``_normal_blocks`` streams both in chunks, so memory stays bounded
    whatever ``samples`` is.
    """
    if samples < 1 or dim < 1:
        raise OrthoSubselectError("need samples >= 1 and dim >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for w, u, v in _normal_blocks(rng, 3, samples, dim):
        worst = max(worst, _triangle_ratio(w, u, v))
    n_adv = max(1, samples // 100)
    for base, delta in _normal_blocks(rng, 2, n_adv, dim):
        w, delta = 10.0 * base, 1e-6 * delta
        worst = max(worst, _triangle_ratio(w, w + delta, w + 2.0 * delta))
    return worst


def _ball_points(centers, deltas, fracs, rho: float):
    """Points u_i with d(u_i, centers_i) <= rho, by shrinking Gaussian offsets.

    Row i proposes centers_i + alpha * deltas_i, starting at alpha = 1, aims
    at the fraction fracs_i of the radius and shrinks alpha multiplicatively
    until the proposal lands inside; d(center + a*delta, center) -> 0 as
    a -> 0, so termination only needs enough shrink steps. Returns the
    points and the ascending indices of the rows that did not land within
    80 steps.
    """
    points = np.empty_like(centers)
    alpha = np.ones(len(centers))
    live = np.arange(len(centers))
    for _ in range(80):
        if live.size == 0:
            break
        candidate = centers[live] + alpha[live, None] * deltas[live]
        dist = _d_batch(candidate, centers[live])
        inside = dist <= rho
        points[live[inside]] = candidate[inside]
        live, dist = live[~inside], dist[~inside]
        alpha[live] *= np.minimum(0.7, 0.9 * fracs[live] * rho / dist)
    return points, live


def check_ball_convexity(samples: int, dim: int, seed: int) -> float:
    """Worst observed d(v, w) / rho over random convex combinations v of points
    sampled inside the quasimetric ball of radius rho = ``_BALL_RADIUS`` around w.

    Convex hulls of quasimetric balls inflate the radius by at most 4.
    Raises OrthoSubselectError if the ball sampler cannot place hull points.
    """
    if samples < 1 or dim < 1:
        raise OrthoSubselectError("need samples >= 1 and dim >= 1")
    rho = _BALL_RADIUS
    rng = np.random.default_rng(seed)
    combos_per_hull = 8
    hull_size = 6
    hulls = -(-samples // combos_per_hull)
    group = max(1, _CHUNK_ENTRIES // (hull_size * dim))
    worst = 0.0
    for first in range(0, hulls, group):
        count = min(group, hulls - first)
        combos = min(count * combos_per_hull, samples - first * combos_per_hull)
        # No draw depends on a computed distance, so a group's draws are made
        # first, hull by hull in the sampler's order: center, (offset,
        # fraction) per hull point, then the combination weights.
        centers = np.empty((count, dim))
        deltas = np.empty((count, hull_size, dim))
        fracs = np.empty((count, hull_size))
        lams = np.empty((combos, hull_size))
        for h in range(count):
            rng.standard_normal(out=centers[h])
            for p in range(hull_size):
                rng.standard_normal(out=deltas[h, p])
                fracs[h, p] = rng.uniform(0.05, 1.0)
            lam = lams[h * combos_per_hull : (h + 1) * combos_per_hull]
            lam[:] = rng.dirichlet(np.ones(hull_size), size=len(lam))
        points, failed = _ball_points(
            np.repeat(centers, hull_size, axis=0),
            deltas.reshape(-1, dim),
            fracs.reshape(-1),
            rho,
        )
        if failed.size:
            center = centers[failed[0] // hull_size]
            raise OrthoSubselectError(
                f"could not sample inside a radius-{rho} ball around "
                f"a point with max coordinate {np.max(np.abs(center)):.3g}"
            )
        hull_of = np.arange(combos) // combos_per_hull
        # one vector-matrix product per combination, as lam @ hull evaluates it
        v = np.matmul(lams[:, None, :], points.reshape(count, hull_size, dim)[hull_of])
        worst = max(worst, float(np.max(_d_batch(v[:, 0], centers[hull_of]) / rho)))
    return worst
