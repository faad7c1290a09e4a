"""Monte-Carlo estimators and property samplers over subspace sections.

W is the row space of an ``OrthoRowMatrix`` A, checked once on entry.
Covers the sign-weighted quadratic supremum over W intersected with the
unit ball (spectral norm of the sign-compressed basis Gram matrix), Gaussian
projection norms, and sampled checks of the fourth-moment quasimetric: its
sandwich bound, factor-4 triangle inequality and ball convexity.

Estimator sums are exactly rounded (``math.fsum``), independent of order.
Draws keep their documented order; only the arithmetic on them is batched.
``gaussian_sup_estimates`` and ``check_quasi_triangle`` reduce in slices of
at most ``_BLOCK_ENTRIES`` entries per array (or one row, if longer), and
the per-trial generators come from ``rng.trial_rngs``, which seeds at most
``rng._SEED_CHUNK`` trials at a time, so temporaries stay bounded whatever
the trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSignVector, BadWeights, SamplingFailed
from .linalg import OrthoRowMatrix
from .rng import make_rng, rademacher, trial_rngs

# Entries per batch of Gaussian draws: keeps a batch's arrays at 32 KiB
# each, whatever the trial count.
_BLOCK_ENTRIES = 1 << 12


@dataclass(frozen=True)
class ProcessEstimate:
    mean: float
    std_error: float
    trials: int
    q: float
    bound_ratio: float  # mean / (q * sqrt(ln M))
    seed: int


def proj_l1_l2_norm(a: OrthoRowMatrix) -> float:
    """l1 -> l2 operator norm of the orthogonal projection onto W.

    Equals the largest column norm of A, because the projection of a
    standard basis vector has norm ||A e_j|| = ||column j of A||.
    """
    return float(np.max(np.linalg.norm(a.mat, axis=0)))


def sup_process_sample(a: OrthoRowMatrix, signs) -> float:
    """Supremum over unit w in W of |sum_i signs_i * w(i)^2|.

    Writing w = A^T y reduces the supremum to the spectral norm of
    S = A diag(signs) A^T, computed by the LAPACK symmetric eigensolver.
    """
    s = np.asarray(signs, dtype=np.float64)
    if s.shape != (a.m,):
        raise BadSignVector(f"need {a.m} signs, got shape {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise BadSignVector("signs must be exactly +-1")
    return _sign_sup(np.ascontiguousarray(a.mat.T), s)


def _sign_sup(u: np.ndarray, s: np.ndarray) -> float:
    """sup_process_sample on the C-ordered basis u = A^T, without checks."""
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
        raise ValueError(f"need at least 2 trials, got {trials}")

    # rademacher signs are +-1, so the unchecked supremum applies; u is a
    # C-ordered copy because the layout of A^T sets the rounding of its sums
    u = np.ascontiguousarray(a.mat.T)
    values = np.asarray([_sign_sup(u, rademacher(rng, a.m))
                         for rng in trial_rngs(seed, 0, trials)])
    mean = math.fsum(values) / trials
    var = math.fsum((values - mean) ** 2) / (trials - 1)
    std_error = math.sqrt(var / trials)
    q = proj_l1_l2_norm(a)
    denom = q * math.sqrt(math.log(a.m))
    ratio = mean / denom if denom > 0.0 else math.inf
    return ProcessEstimate(mean, std_error, trials, q, ratio, seed)


def gaussian_sup_estimates(
    a: OrthoRowMatrix, weights, trials: int, seed: int
) -> tuple[float, float | None]:
    """Monte-Carlo means of ||P_W g||_inf and, when ``weights`` is given,
    of the weighted norm (sum_i (P_W g)_i^2 * weights_i^2)^(1/2).

    g is standard Gaussian in R^M; trial k is seeded by child_seed(seed, k).
    Returns (mean_inf, mean_weighted) with mean_weighted None when weights
    are absent.
    """
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    wt = None
    if weights is not None:
        wt = np.asarray(weights, dtype=np.float64)
        if wt.shape != (a.m,):
            raise BadWeights(f"need {a.m} weights, got shape {wt.shape}")
        if not np.all(np.isfinite(wt)):
            raise BadWeights("weights must be finite")
    u = np.ascontiguousarray(a.mat.T)
    inf_vals = np.empty(trials)
    wvals = np.empty(trials) if wt is not None else None
    block = max(1, _BLOCK_ENTRIES // a.m)
    g = np.empty((min(block, trials), a.m))
    rngs = trial_rngs(seed, 0, trials)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        # zip takes the rows first, so it draws one generator per row
        for row, rng in zip(g[: stop - start], rngs):
            rng.standard_normal(out=row)
        # einsum without ``optimize`` stays off threaded BLAS, whose idle
        # workers spin for longer than these small contractions take
        proj = np.einsum("tn,mn->tm", np.einsum("tm,mn->tn", g[: stop - start], u), u)
        inf_vals[start:stop] = np.max(np.abs(proj), axis=1)
        if wvals is not None:
            wvals[start:stop] = np.sqrt(np.sum(proj * proj * wt * wt, axis=1))
    mean_inf = math.fsum(inf_vals) / trials
    mean_weighted = math.fsum(wvals) / trials if wvals is not None else None
    return mean_inf, mean_weighted


def _d_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Quasimetric d(x, y) = (sum_i (x_i - y_i)^2 (x_i^2 + y_i^2))^(1/2)
    over the last axis."""
    return np.sqrt(np.sum((x - y) ** 2 * (x * x + y * y), axis=-1))


def check_sandwich(samples: int, dim: int, seed: int) -> float:
    """Worst dtilde(w, v) / (sqrt(2) d(w, v)) over sampled Gaussian pairs
    with d > 0 (0 if there are none), where dtilde(w, v) =
    (sum_i (w_i^2 - v_i^2)^2)^(1/2); the sandwich bound keeps it <= 1."""
    if samples < 0 or dim < 1:
        raise ValueError("need samples >= 0 and dim >= 1")
    rng = make_rng(seed)
    x = rng.standard_normal((samples, dim))
    y = rng.standard_normal((samples, dim))
    d = _d_batch(x, y)
    dtilde = np.sqrt(np.sum((x * x - y * y) ** 2, axis=-1))
    live = d > 0.0
    return float(np.max(dtilde[live] / (math.sqrt(2.0) * d[live]), initial=0.0))


def check_quasi_triangle(samples: int, dim: int, seed: int) -> float:
    """Worst observed d(w, v) / (d(w, u) + d(u, v)) over sampled triples
    with a positive denominator (0 if there are none).

    Samples Gaussian triples plus a 1% batch of adversarial near-collinear
    triples (w, w + delta, w + 2 delta) with large coordinates and tiny
    increments. The generalized triangle inequality bounds the ratio by 4.
    All triples are drawn up front, in that order; the Gaussian ones are
    reduced in row slices, so the temporaries stay small.
    """
    if samples < 1 or dim < 1:
        raise ValueError("need samples >= 1 and dim >= 1")
    rng = make_rng(seed)
    gauss = rng.standard_normal((3, samples, dim))
    n_adv = max(1, samples // 100)
    base = 10.0 * rng.standard_normal((n_adv, dim))
    delta = 1e-6 * rng.standard_normal((n_adv, dim))
    rows = max(1, _BLOCK_ENTRIES // dim)
    batches = [gauss[:, start : start + rows] for start in range(0, samples, rows)]
    batches.append((base, base + delta, base + 2.0 * delta))
    worst = 0.0
    for w, u, v in batches:
        num = _d_batch(w, v)
        den = _d_batch(w, u) + _d_batch(u, v)
        live = den > 0.0
        worst = max(worst, float(np.max(num[live] / den[live], initial=0.0)))
    return worst


def _ball_points(centers, deltas, fracs, rho: float, max_shrink: int = 80):
    """Points u_i with d(u_i, centers_i) <= rho, by shrinking Gaussian offsets.

    Row i proposes centers_i + alpha * deltas_i, starting at alpha = 1, aims
    at the fraction fracs_i of the radius and shrinks alpha multiplicatively
    until the proposal lands inside; d(center + a*delta, center) -> 0 as
    a -> 0, so termination only needs enough shrink steps. Returns the
    points and the ascending indices of the rows that did not land within
    ``max_shrink`` steps.
    """
    points = np.empty_like(centers)
    alpha = np.ones(len(centers))
    live = np.arange(len(centers))
    for _ in range(max_shrink):
        if live.size == 0:
            break
        candidate = centers[live] + alpha[live, None] * deltas[live]
        dist = _d_batch(candidate, centers[live])
        inside = dist <= rho
        points[live[inside]] = candidate[inside]
        live, dist = live[~inside], dist[~inside]
        alpha[live] *= np.minimum(0.7, 0.9 * fracs[live] * rho / dist)
    return points, live


def check_ball_convexity(samples: int, dim: int, rho: float, seed: int) -> float:
    """Worst observed d(v, w) / rho over random convex combinations v of
    points sampled inside the quasimetric ball of radius rho around w.

    Convex hulls of quasimetric balls inflate the radius by at most 4.
    Raises SamplingFailed if the ball sampler cannot place hull points.
    """
    if samples < 1 or dim < 1:
        raise ValueError("need samples >= 1 and dim >= 1")
    if not (math.isfinite(rho) and rho > 0.0):
        raise ValueError(f"rho must be finite and > 0, got {rho}")
    rng = make_rng(seed)
    combos_per_hull = 8
    hull_size = 6
    hulls = -(-samples // combos_per_hull)
    # No draw depends on a computed distance, so every draw is made first,
    # hull by hull in the sampler's order: center, (offset, fraction) per
    # hull point, then the combination weights.
    centers = np.empty((hulls, dim))
    deltas = np.empty((hulls, hull_size, dim))
    fracs = np.empty((hulls, hull_size))
    lams = np.empty((samples, hull_size))
    for h in range(hulls):
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
        raise SamplingFailed(
            f"could not sample inside a radius-{rho} ball around "
            f"a point with max coordinate {np.max(np.abs(center)):.3g}"
        )
    hull_of = np.arange(samples) // combos_per_hull
    # one vector-matrix product per combination, as lam @ hull evaluates it
    v = np.matmul(lams[:, None, :], points.reshape(hulls, hull_size, dim)[hull_of])
    return float(np.max(_d_batch(v[:, 0], centers[hull_of]) / rho, initial=0.0))
