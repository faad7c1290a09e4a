import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ortho_subselect import (
    BadSignVector,
    BadWeights,
    NotOrthonormal,
    OrthoRowMatrix,
    ProcessEstimate,
    check_ball_convexity,
    check_quasi_triangle,
    child_seed,
    estimate_process,
    gaussian_sup_estimates,
    gen_random_ortho,
    gen_walsh,
    make_rng,
    proj_l1_l2_norm,
    rademacher,
    sup_process_sample,
)
from ortho_subselect.processes import _d_batch, check_sandwich
from ortho_subselect.rng import _SEED_CHUNK

HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)
HALF_NORMAL_STD = math.sqrt(1.0 - 2.0 / math.pi)


def ones_span(m: int) -> OrthoRowMatrix:
    return OrthoRowMatrix(np.full((1, m), 1.0 / math.sqrt(m)))


def _gaussian_sup_loop(a, weights, trials, seed):
    """Reference: one projection per trial, drawn and reduced one at a time."""
    wt = None if weights is None else np.asarray(weights, dtype=np.float64)
    inf_vals = np.empty(trials)
    wvals = np.empty(trials)
    for trial in range(trials):
        rng = make_rng(child_seed(seed, trial))
        g = rng.standard_normal(a.m)
        proj = a.mat.T @ (a.mat @ g)
        inf_vals[trial] = np.max(np.abs(proj))
        if wt is not None:
            wvals[trial] = math.sqrt(float(np.sum(proj * proj * wt * wt)))
    mean_weighted = None if wt is None else math.fsum(wvals) / trials
    return math.fsum(inf_vals) / trials, mean_weighted


def _estimate_process_loop(a, trials, seed):
    """Reference: one generator and one checked supremum per trial."""
    values = np.asarray([
        sup_process_sample(a, rademacher(make_rng(child_seed(seed, k)), a.m))
        for k in range(trials)
    ])
    mean = math.fsum(values) / trials
    var = math.fsum((values - mean) ** 2) / (trials - 1)
    q = proj_l1_l2_norm(a)
    ratio = mean / (q * math.sqrt(math.log(a.m)))
    return ProcessEstimate(mean, math.sqrt(var / trials), trials, q, ratio, seed)


# straddle the 64-row Gaussian blocks at M = 64 and the seeding chunks
TRIAL_COUNTS = (1, 2, 63, 64, 65, _SEED_CHUNK - 1, _SEED_CHUNK, _SEED_CHUNK + 1)


def _quasi_d(x, y) -> float:
    """Reference quasimetric d(x, y) = (sum_i (x_i - y_i)^2 (x_i^2 + y_i^2))^(1/2)."""
    return float(np.sqrt(np.sum((x - y) ** 2 * (x * x + y * y))))


def _quasi_dtilde(x, y) -> float:
    """Reference companion metric dtilde(x, y) = (sum_i (x_i^2 - y_i^2)^2)^(1/2)."""
    return float(np.sqrt(np.sum((x * x - y * y) ** 2)))


def _ball_point(rng, center, rho, max_shrink=80):
    """Reference: one ball point, shrinking its own Gaussian offset."""
    delta = rng.standard_normal(center.shape)
    frac = rng.uniform(0.05, 1.0)
    alpha = 1.0
    for _ in range(max_shrink):
        candidate = center + alpha * delta
        dist = _quasi_d(candidate, center)
        if dist <= rho:
            return candidate
        alpha *= min(0.7, 0.9 * frac * rho / dist)
    return None


def _ball_convexity_loop(samples, dim, rho, seed):
    """Reference: hull by hull, point by point, combination by combination."""
    rng = make_rng(seed)
    worst = 0.0
    done = 0
    while done < samples:
        center = rng.standard_normal(dim)
        hull = np.asarray([_ball_point(rng, center, rho) for _ in range(6)])
        take = min(8, samples - done)
        for _ in range(take):
            lam = rng.dirichlet(np.ones(6))
            worst = max(worst, _quasi_d(lam @ hull, center) / rho)
        done += take
    return worst


def test_basis_validation():
    # The harnesses take the OrthoRowMatrix spanning W, which refuses a
    # non-orthonormal frame and the transposed (M x n column) layout.
    with pytest.raises(NotOrthonormal):
        OrthoRowMatrix(np.ones((2, 4)))
    with pytest.raises(NotOrthonormal):
        OrthoRowMatrix(np.ones((4, 2)))
    with pytest.raises(NotOrthonormal):
        OrthoRowMatrix(np.eye(4, 2))


def test_q_on_coordinate_span():
    assert proj_l1_l2_norm(OrthoRowMatrix(np.eye(3, 10))) == 1.0


def test_q_on_ones_span():
    m = 16
    assert abs(proj_l1_l2_norm(ones_span(m)) - 1.0 / math.sqrt(m)) <= 1e-15


def test_q_equals_max_projected_basis_vector():
    # definitional oracle: max_j ||P_W e_j|| computed through the projector
    a = gen_random_ortho(3, 12, seed=4)
    proj = a.mat.T @ a.mat
    direct = max(float(np.linalg.norm(proj[:, j])) for j in range(12))
    assert abs(proj_l1_l2_norm(a) - direct) <= 1e-12


def test_q_bounded_by_coherence():
    # for W = range(A^T) the bound Q <= t sqrt(n/M) is tight
    from ortho_subselect import coherence

    for a in (gen_walsh(8, 64), gen_random_ortho(5, 40, seed=8)):
        t = coherence(a).t
        assert proj_l1_l2_norm(a) <= t * math.sqrt(a.n / a.m) + 1e-12


def test_sup_sample_coordinate_span():
    a = OrthoRowMatrix(np.eye(1, 8))
    signs = rademacher(make_rng(0), 8)
    assert sup_process_sample(a, signs) == 1.0


def test_sup_sample_all_plus_ones():
    assert sup_process_sample(OrthoRowMatrix(np.eye(3, 8)), np.ones(8)) == 1.0
    a = gen_random_ortho(3, 12, seed=1)
    assert abs(sup_process_sample(a, np.ones(12)) - 1.0) <= 1e-12


def test_sup_sample_sign_flip_symmetry():
    a = gen_random_ortho(4, 20, seed=2)
    signs = rademacher(make_rng(3), 20)
    assert sup_process_sample(a, signs) == sup_process_sample(a, -signs)


def test_sup_sample_basis_rotation_invariance():
    a = gen_random_ortho(4, 20, seed=5)
    rot = gen_random_ortho(4, 4, seed=6).mat
    a2 = OrthoRowMatrix(rot.T @ a.mat)  # another orthonormal basis of W
    signs = rademacher(make_rng(7), 20)
    assert abs(sup_process_sample(a, signs) - sup_process_sample(a2, signs)) <= 1e-10


def test_sup_sample_dominates_brute_force():
    # sampling oracle: max over a million random unit w in W of the weighted
    # square sum, which the spectral value must dominate within 1e-3
    a = gen_random_ortho(3, 16, seed=9)
    signs = rademacher(make_rng(10), 16)
    value = sup_process_sample(a, signs)
    core = (a.mat * signs) @ a.mat.T
    y = np.random.default_rng(11).standard_normal((1_000_000, 3))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    sampled = float(np.max(np.abs(np.einsum("ij,jk,ik->i", y, core, y))))
    assert sampled <= value + 1e-12
    assert value - sampled <= 1e-3


def test_sup_sample_rejects_bad_signs():
    a = OrthoRowMatrix(np.eye(1, 4))
    with pytest.raises(BadSignVector):
        sup_process_sample(a, np.ones(3))
    with pytest.raises(BadSignVector):
        sup_process_sample(a, np.array([1.0, -1.0, 0.5, 1.0]))


def test_estimate_coordinate_fixture_is_exact():
    est = estimate_process(OrthoRowMatrix(np.eye(1, 64)), trials=50, seed=0)
    assert est.mean == 1.0
    assert est.std_error == 0.0
    assert est.q == 1.0


def test_estimate_one_dim_equals_direct_scalar_simulation():
    # same seeds, same sign draws, same aggregation: exact equality
    m, trials, seed = 32, 40, 13
    a = gen_random_ortho(1, m, seed=14)
    v = a.mat[0]
    values = np.empty(trials)
    for trial in range(trials):
        rng = make_rng(child_seed(seed, trial))
        signs = rademacher(rng, m)
        values[trial] = abs(float((v * signs) @ v))
    direct_mean = math.fsum(values) / trials
    est = estimate_process(a, trials, seed)
    assert est.mean == direct_mean


def test_estimate_ones_span_matches_independent_simulation():
    # |sum eps_i| / M oracle simulated with a fresh stream, 3 std errors
    m, trials = 64, 400
    est = estimate_process(ones_span(m), trials, seed=21)
    rng = np.random.default_rng(1234)
    oracle = np.abs(rademacher(rng, (trials, m)).sum(axis=1)) / m
    gap = abs(est.mean - oracle.mean())
    se = math.hypot(est.std_error, oracle.std(ddof=1) / math.sqrt(trials))
    assert gap <= 3.0 * se


def test_gaussian_sup_half_normal_fixture():
    trials = 10_000
    mean_inf, mean_w = gaussian_sup_estimates(
        OrthoRowMatrix(np.eye(1, 64)), None, trials, seed=2
    )
    assert mean_w is None
    se = HALF_NORMAL_STD / math.sqrt(trials)
    assert abs(mean_inf - HALF_NORMAL_MEAN) <= 3.0 * se


def test_gaussian_sup_weighted_variants():
    a = OrthoRowMatrix(np.eye(1, 64))
    trials = 10_000
    _, zero = gaussian_sup_estimates(a, [0.0] * 64, trials, seed=3)
    assert zero == 0.0
    weights = [0.0] * 64
    weights[0] = 1.0
    _, weighted = gaussian_sup_estimates(a, weights, trials, seed=4)
    se = HALF_NORMAL_STD / math.sqrt(trials)
    assert abs(weighted - HALF_NORMAL_MEAN) <= 3.0 * se


def test_gaussian_sup_matches_per_trial_loop_on_coordinate_spans():
    rng = np.random.default_rng(17)
    for m, dims in ((64, 1), (64, 5), (8, 8)):
        a = OrthoRowMatrix(np.eye(dims, m))
        for weights in (None, rng.standard_normal(m), [1.0] + [0.0] * (m - 1)):
            for trials, seed in zip(TRIAL_COUNTS + (300,), (0, 1, 2, 3, 4, 5, 6, 2**40, 7)):
                got = gaussian_sup_estimates(a, weights, trials, seed)
                assert got == _gaussian_sup_loop(a, weights, trials, seed)


@pytest.mark.parametrize("trials", [t for t in TRIAL_COUNTS if t >= 2])
def test_estimate_process_matches_per_trial_loop(trials):
    for a, seed in ((gen_walsh(4, 16), 3), (gen_random_ortho(3, 12, seed=4), 2**40)):
        assert estimate_process(a, trials, seed) == _estimate_process_loop(a, trials, seed)


def test_gaussian_sup_matches_per_trial_loop_on_dense_bases():
    # the batched contraction sums in another order than BLAS matvecs
    rng = np.random.default_rng(18)
    for a in (gen_walsh(8, 128), gen_random_ortho(5, 40, seed=19)):
        weights = rng.standard_normal(a.m)
        for trials, seed in ((1, 0), (33, 1), (700, 2)):
            got = gaussian_sup_estimates(a, weights, trials, seed)
            want = _gaussian_sup_loop(a, weights, trials, seed)
            assert abs(got[0] - want[0]) <= 1e-12
            assert abs(got[1] - want[1]) <= 1e-12


def test_gaussian_sup_rejects_bad_weights():
    a = OrthoRowMatrix(np.eye(1, 8))
    with pytest.raises(BadWeights):
        gaussian_sup_estimates(a, [1.0] * 7, 10, seed=0)
    with pytest.raises(BadWeights):
        gaussian_sup_estimates(a, [math.nan] * 8, 10, seed=0)


def test_quasimetric_basics():
    # _d_batch is the one d that the triangle, ball and sandwich checks share
    x = np.array([[1.0, 2.0], [1.0, 0.0]])
    assert _d_batch(x, np.array([[1.0, 2.0], [0.0, 0.0]])).tolist() == [0.0, 1.0]
    a, b = np.array([0.3, -1.2, 2.0]), np.array([1.1, 0.4, -0.7])
    assert _d_batch(a, b) == _d_batch(b, a)


@settings(max_examples=200, deadline=None)
@given(
    arrays(np.float64, 6, elements=st.floats(-100, 100)),
    arrays(np.float64, 6, elements=st.floats(-100, 100)),
)
def test_quasimetric_sandwich_property(x, y):
    # dtilde <= sqrt(2) d, with zero only at equal squares
    d = float(_d_batch(x, y))
    dt = _quasi_dtilde(x, y)
    assert dt <= math.sqrt(2.0) * d or dt == d == 0.0


def test_check_sandwich_matches_pairwise_loop():
    # reference: the scalar per-pair loop over the same draws
    for samples, dim, seed in ((1, 1, 0), (500, 2, 3), (200, 32, 4)):
        rng = make_rng(seed)
        x = rng.standard_normal((samples, dim))
        y = rng.standard_normal((samples, dim))
        worst = 0.0
        for a, b in zip(x, y):
            d = _quasi_d(a, b)
            if d > 0.0:
                worst = max(worst, _quasi_dtilde(a, b) / (math.sqrt(2.0) * d))
        assert check_sandwich(samples, dim, seed) == worst
        assert worst <= 1.0
    assert check_sandwich(0, 2, seed=0) == 0.0
    for samples, dim in ((-5, 2), (10, 0)):
        with pytest.raises(ValueError, match="samples >= 0 and dim >= 1"):
            check_sandwich(samples, dim, seed=0)


def test_triangle_ratio_bounded():
    for dim in (2, 8):
        assert check_quasi_triangle(5_000, dim, seed=6) <= 4.0


def _d_rows(x, y):
    return np.sqrt(np.sum((x - y) ** 2 * (x * x + y * y), axis=-1))


def _triangle_batches(rng, samples, dim):
    yield rng.standard_normal((3, samples, dim))
    n_adv = max(1, samples // 100)
    base = 10.0 * rng.standard_normal((n_adv, dim))
    delta = 1e-6 * rng.standard_normal((n_adv, dim))
    yield base, base + delta, base + 2.0 * delta


def _worst_triangle_loop(samples, dim, seed):
    """Reference: each batch reduced whole, keeping the worst lhs / rhs."""
    rng = make_rng(seed)
    worst = 0.0
    for w, u, v in _triangle_batches(rng, samples, dim):
        num = _d_rows(w, v)
        den = _d_rows(w, u) + _d_rows(u, v)
        live = den > 0.0
        if live.any():
            at = int(np.argmax(num[live] / den[live]))
            ratio = float(num[live][at]) / float(den[live][at])
            if ratio > worst:
                worst = ratio
    return worst


@pytest.mark.parametrize("dim", [1, 2, 8, 32, 33])
def test_quasi_triangle_matches_whole_array_loop(dim):
    # 128 and 2048 rows are the slice heights at dim 32 and dim 2; 100 is
    # where the adversarial batch grows past one triple
    for samples in (1, 99, 100, 127, 128, 129, 2048, 2049, 5000):
        for seed in (0, 11):
            want = _worst_triangle_loop(samples, dim, seed)
            assert check_quasi_triangle(samples, dim, seed) == want
    for samples, d in ((0, dim), (1, 0), (-1, dim)):
        with pytest.raises(ValueError, match="samples >= 1 and dim >= 1"):
            check_quasi_triangle(samples, d, seed=0)


def test_quasi_triangle_memory_stays_near_the_drawn_triples():
    samples, dim = 20_000, 32
    triples = 3 * samples * dim * 8
    tracemalloc.start()
    try:
        check_quasi_triangle(samples, dim, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * triples


def test_ball_convexity_bounded():
    assert check_ball_convexity(1_000, 6, rho=0.3, seed=7) <= 4.0
    for rho in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rho must be finite and > 0"):
            check_ball_convexity(10, 6, rho=rho, seed=0)


@pytest.mark.parametrize("rho", [0.05, 0.3, 3.0])
@pytest.mark.parametrize("dim", [1, 6, 32])
def test_ball_convexity_matches_per_combination_loop(dim, rho):
    for seed, samples in enumerate((1, 7, 8, 9, 1000)):
        want = _ball_convexity_loop(samples, dim, rho, seed)
        assert check_ball_convexity(samples, dim, rho, seed) == want


def test_ball_convexity_reports_sampler_failure(monkeypatch):
    from ortho_subselect import SamplingFailed
    from ortho_subselect import processes as proc

    def message(center):
        return (
            "could not sample inside a radius-0.1 ball around a point with "
            f"max coordinate {np.max(np.abs(center)):.3g}"
        )

    monkeypatch.setattr(proc, "_ball_points", lambda c, *args: (c, np.arange(len(c))))
    first = make_rng(0).standard_normal(4)
    with pytest.raises(SamplingFailed) as err:
        check_ball_convexity(10, 4, rho=0.1, seed=0)
    assert str(err.value) == message(first)

    # only the second hull (points 6..11) fails: its center is named
    seen = []

    def second_hull_fails(centers, *args):
        seen.append(centers[6])
        return centers, np.array([7, 11])

    monkeypatch.setattr(proc, "_ball_points", second_hull_fails)
    with pytest.raises(SamplingFailed) as err:
        check_ball_convexity(24, 4, rho=0.1, seed=0)
    assert str(err.value) == message(seen[0])
    assert str(err.value) != message(first)


def test_estimate_process_needs_two_trials():
    with pytest.raises(ValueError):
        estimate_process(OrthoRowMatrix(np.eye(1, 4)), trials=1, seed=0)
