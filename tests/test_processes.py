import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ortho_subselect import (
    OrthoRowMatrix,
    OrthoSubselectError,
    ProcessEstimate,
    check_ball_convexity,
    check_quasi_triangle,
    child_seed,
    estimate_process,
    gaussian_sup_estimates,
    gen_random_ortho,
    gen_walsh,
)
from ortho_subselect import cli
from ortho_subselect import processes as proc
from ortho_subselect.jsonio import dumps
from ortho_subselect.processes import _CHUNK_ENTRIES, _d_batch, _sign_sup, check_sandwich
from ortho_subselect.rng import _SEED_CHUNK

HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)
HALF_NORMAL_STD = math.sqrt(1.0 - 2.0 / math.pi)


def _rademacher(rng, size):
    """+-1 signs from integer bits, the draw estimate_process makes per trial."""
    return 2.0 * rng.integers(0, 2, size=size).astype(np.float64) - 1.0


def ones_span(m: int) -> OrthoRowMatrix:
    return OrthoRowMatrix(np.full((1, m), 1.0 / math.sqrt(m)))


def _gaussian_sup_loop(a, weights, trials, seed):
    """Reference: one projection per trial, drawn and reduced one at a time."""
    wt = np.asarray(weights, dtype=np.float64)
    inf_vals = np.empty(trials)
    wvals = np.empty(trials)
    for trial in range(trials):
        rng = np.random.default_rng(child_seed(seed, trial))
        g = rng.standard_normal(a.m)
        proj = a.mat.T @ (a.mat @ g)
        inf_vals[trial] = np.max(np.abs(proj))
        wvals[trial] = math.sqrt(float(np.sum(proj * proj * wt * wt)))
    return math.fsum(inf_vals) / trials, math.fsum(wvals) / trials


def _estimate_process_loop(a, trials, seed):
    """Reference: one generator and one supremum per trial."""
    values = np.asarray([
        _sign_sup(a.mat.T, _rademacher(np.random.default_rng(child_seed(seed, k)), a.m))
        for k in range(trials)
    ])
    mean = math.fsum(values) / trials
    var = math.fsum((values - mean) ** 2) / (trials - 1)
    q = float(np.max(np.linalg.norm(a.mat, axis=0)))  # Q = max_j ||A e_j||
    ratio = mean / (q * math.sqrt(math.log(a.m)))
    return ProcessEstimate(mean, math.sqrt(var / trials), trials, q, ratio, seed)


# straddle the 64-row Gaussian blocks at M = 64 and the seeding chunks
TRIAL_COUNTS = (1, 2, 63, 64, 65, _SEED_CHUNK - 1, _SEED_CHUNK, _SEED_CHUNK + 1)


# wider than a whole chunk, so each chunk holds a single row
WIDE_DIM = _CHUNK_ENTRIES + 1


def _chunk_edges(dim, least=1):
    """Sample counts around one and two chunk heights at this dim."""
    rows = max(1, _CHUNK_ENTRIES // dim)
    return tuple(n for n in (rows - 1, rows, rows + 1, 2 * rows + 1) if n >= least)


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
    rng = np.random.default_rng(seed)
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


def _q(a: OrthoRowMatrix) -> float:
    """Q of the span of ``a``, as estimate_process reports it."""
    return estimate_process(a, 2, 0).q


def test_q_on_ones_span():
    m = 16
    assert abs(_q(ones_span(m)) - 1.0 / math.sqrt(m)) <= 1e-15


def test_q_equals_max_projected_basis_vector():
    # definitional oracle: max_j ||P_W e_j|| computed through the projector
    a = gen_random_ortho(3, 12, seed=4)
    proj = a.mat.T @ a.mat
    direct = max(float(np.linalg.norm(proj[:, j])) for j in range(12))
    assert abs(_q(a) - direct) <= 1e-12


def test_sup_sample_coordinate_span():
    a = OrthoRowMatrix(np.eye(1, 8))
    signs = _rademacher(np.random.default_rng(0), 8)
    assert _sign_sup(a.mat.T, signs) == 1.0


def test_sup_sample_all_plus_ones():
    assert _sign_sup(OrthoRowMatrix(np.eye(3, 8)).mat.T, np.ones(8)) == 1.0
    a = gen_random_ortho(3, 12, seed=1)
    assert abs(_sign_sup(a.mat.T, np.ones(12)) - 1.0) <= 1e-12


def test_sup_sample_sign_flip_symmetry():
    a = gen_random_ortho(4, 20, seed=2)
    signs = _rademacher(np.random.default_rng(3), 20)
    assert _sign_sup(a.mat.T, signs) == _sign_sup(a.mat.T, -signs)


def test_sup_sample_basis_rotation_invariance():
    a = gen_random_ortho(4, 20, seed=5)
    rot = gen_random_ortho(4, 4, seed=6).mat
    a2 = OrthoRowMatrix(rot.T @ a.mat)  # another orthonormal basis of W
    signs = _rademacher(np.random.default_rng(7), 20)
    assert abs(_sign_sup(a.mat.T, signs) - _sign_sup(a2.mat.T, signs)) <= 1e-10


def test_sup_sample_dominates_brute_force():
    # sampling oracle: max over a million random unit w in W of the weighted
    # square sum, which the spectral value must dominate within 1e-3
    a = gen_random_ortho(3, 16, seed=9)
    signs = _rademacher(np.random.default_rng(10), 16)
    value = _sign_sup(a.mat.T, signs)
    core = (a.mat * signs) @ a.mat.T
    y = np.random.default_rng(11).standard_normal((1_000_000, 3))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    sampled = float(np.max(np.abs(np.einsum("ij,jk,ik->i", y, core, y))))
    assert sampled <= value + 1e-12
    assert value - sampled <= 1e-3


def test_estimate_one_dim_equals_direct_scalar_simulation():
    # same seeds, same sign draws, same aggregation: exact equality
    m, trials, seed = 32, 40, 13
    a = gen_random_ortho(1, m, seed=14)
    v = a.mat[0]
    values = np.empty(trials)
    for trial in range(trials):
        rng = np.random.default_rng(child_seed(seed, trial))
        signs = _rademacher(rng, m)
        values[trial] = abs(float((v * signs) @ v))
    direct_mean = math.fsum(values) / trials
    est = estimate_process(a, trials, seed)
    assert est.mean == direct_mean


def test_estimate_ones_span_matches_independent_simulation():
    # |sum eps_i| / M oracle simulated with a fresh stream, 3 std errors
    m, trials = 64, 400
    est = estimate_process(ones_span(m), trials, seed=21)
    rng = np.random.default_rng(1234)
    oracle = np.abs(_rademacher(rng, (trials, m)).sum(axis=1)) / m
    gap = abs(est.mean - oracle.mean())
    se = math.hypot(est.std_error, oracle.std(ddof=1) / math.sqrt(trials))
    assert gap <= 3.0 * se


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
        for weights in (np.zeros(m), rng.standard_normal(m), [1.0] + [0.0] * (m - 1)):
            for trials, seed in zip(TRIAL_COUNTS + (300,), (0, 1, 2, 3, 4, 5, 6, 2**40, 7)):
                got = gaussian_sup_estimates(a, weights, trials, seed)
                assert got == _gaussian_sup_loop(a, weights, trials, seed)


def test_gaussian_sup_inf_mean_does_not_read_the_weights():
    rng = np.random.default_rng(20)
    for a in (OrthoRowMatrix(np.eye(1, 64)), gen_walsh(8, 128)):
        means = [
            gaussian_sup_estimates(a, weights, 300, seed=3)[0]
            for weights in (np.zeros(a.m), np.eye(1, a.m)[0], rng.standard_normal(a.m))
        ]
        assert means[0] == means[1] == means[2]


@pytest.mark.parametrize("trials", [1, 2, 65, 1000])
def test_sudakov_lines_match_three_separate_passes(trials):
    # The suite reads sudakov_zero_weights off its zero-weights inf-norm
    # pass. Its lines must equal those built from three per-trial passes,
    # one on each of the seed paths "inf", "weighted" and "zero".
    m = 64
    fixture = OrthoRowMatrix(np.eye(1, m))
    zeros, e1 = np.zeros(m), np.eye(1, m)[0]
    se = HALF_NORMAL_STD / math.sqrt(trials)
    for seed in range(5):
        mean_inf, _ = _gaussian_sup_loop(fixture, zeros, trials, child_seed(seed, "inf"))
        _, mean_w = _gaussian_sup_loop(fixture, e1, trials, child_seed(seed, "weighted"))
        _, mean_zero = _gaussian_sup_loop(fixture, zeros, trials, child_seed(seed, "zero"))
        threshold = cli.SUDAKOV_THRESHOLD
        want = [
            ("sudakov_inf_span_e1", abs(mean_inf - HALF_NORMAL_MEAN) / se, threshold),
            ("sudakov_weighted_span_e1", abs(mean_w - HALF_NORMAL_MEAN) / se, threshold),
            ("sudakov_zero_weights", mean_zero, 0.0),
        ]
        want = [
            dumps({"check": check, "samples": trials, "max_ratio": ratio,
                   "threshold": limit, "pass": ratio <= limit})
            for check, ratio, limit in want
        ]
        assert [dumps(line) for line in cli._verify_sudakov(trials, seed)] == want


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
    cases = [(1, 1, 0), (500, 2, 3), (200, 32, 4)]
    for dim in (1, 2, 32, 33, WIDE_DIM):
        cases += [(samples, dim, 5) for samples in _chunk_edges(dim, least=0)]
    for samples, dim, seed in cases:
        pairs = np.random.default_rng(seed).standard_normal((samples, 2, dim))
        x, y = pairs[:, 0], pairs[:, 1]
        worst = 0.0
        for a, b in zip(x, y):
            d = _quasi_d(a, b)
            if d > 0.0:
                worst = max(worst, _quasi_dtilde(a, b) / (math.sqrt(2.0) * d))
        assert check_sandwich(samples, dim, seed) == worst
        assert worst <= 1.0
    assert check_sandwich(0, 2, seed=0) == 0.0


def _d_rows(x, y):
    return np.sqrt(np.sum((x - y) ** 2 * (x * x + y * y), axis=-1))


def _triangle_batches(rng, samples, dim):
    triples = rng.standard_normal((samples, 3, dim))
    yield triples[:, 0], triples[:, 1], triples[:, 2]
    adversarial = rng.standard_normal((max(1, samples // 100), 2, dim))
    base = 10.0 * adversarial[:, 0]
    delta = 1e-6 * adversarial[:, 1]
    yield base, base + delta, base + 2.0 * delta


def _worst_triangle_loop(samples, dim, seed):
    """Reference: each batch reduced whole, keeping the worst lhs / rhs."""
    rng = np.random.default_rng(seed)
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


@pytest.mark.parametrize("dim", [1, 2, 8, 32, 33, WIDE_DIM])
def test_quasi_triangle_matches_whole_array_loop(dim):
    # 128 and 2048 rows are the slice heights at dim 32 and dim 2; 100 is
    # where the adversarial batch grows past one triple
    counts = (1, 99, 100, 127, 128, 129, 2048, 2049, 5000) if dim < WIDE_DIM else ()
    for samples in counts + _chunk_edges(dim):
        for seed in (0, 11):
            want = _worst_triangle_loop(samples, dim, seed)
            assert check_quasi_triangle(samples, dim, seed) == want


@pytest.mark.parametrize("samples, dim", [(99, 2), (13_000, 32), (250, WIDE_DIM)])
def test_quasi_triangle_draws_the_whole_array_stream(monkeypatch, samples, dim):
    # Every (w, u, v) the check reduces, the adversarial triples included,
    # is the whole-array draw's, bit for bit. The ratio oracle cannot see the
    # adversarial batch: its ratio (~1 + 1e-13) never beats the Gaussian max.
    # At (13_000, 32) and (250, WIDE_DIM) that batch spans several chunks.
    calls = []

    def record(x, y):
        calls.append((x.copy(), y.copy()))
        return _d_batch(x, y)

    monkeypatch.setattr(proc, "_d_batch", record)
    check_quasi_triangle(samples, dim, seed=12)
    # each chunk makes d(w, v), d(w, u) and d(u, v), in that order
    w = np.concatenate([x for x, _ in calls[0::3]])
    v = np.concatenate([y for _, y in calls[0::3]])
    u = np.concatenate([y for _, y in calls[1::3]])
    assert np.concatenate([x for x, _ in calls[1::3]]).tobytes() == w.tobytes()
    assert np.concatenate([x for x, _ in calls[2::3]]).tobytes() == u.tobytes()
    assert np.concatenate([y for _, y in calls[2::3]]).tobytes() == v.tobytes()
    gauss, adversarial = _triangle_batches(np.random.default_rng(12), samples, dim)
    for got, g, adv in zip((w, u, v), gauss, adversarial):
        assert len(adv) == max(1, samples // 100)
        assert got.tobytes() == np.concatenate([g, adv]).tobytes()


@pytest.mark.parametrize("samples, dim", [(99, 2), (13_000, 32), (250, WIDE_DIM)])
def test_check_sandwich_draws_the_whole_array_stream(monkeypatch, samples, dim):
    # Every (x, y) pair the check reduces is the whole-array draw's, bit for
    # bit; the ratio oracle sees only the largest ratio. At (13_000, 32) and
    # (250, WIDE_DIM) the pairs span many chunks.
    calls = []

    def record(x, y):
        calls.append((x.copy(), y.copy()))
        return _d_batch(x, y)

    monkeypatch.setattr(proc, "_d_batch", record)
    check_sandwich(samples, dim, seed=12)
    pairs = np.random.default_rng(12).standard_normal((samples, 2, dim))
    x = np.concatenate([x for x, _ in calls])
    y = np.concatenate([y for _, y in calls])
    assert x.shape == y.shape == (samples, dim)
    assert x.tobytes() == pairs[:, 0].tobytes()
    assert y.tobytes() == pairs[:, 1].tobytes()


@pytest.mark.parametrize(
    "sampler, counts",
    [
        (lambda samples: check_quasi_triangle(samples, 32, seed=5), (20_000, 200_000)),
        (lambda samples: check_sandwich(samples, 32, seed=5), (20_000, 200_000)),
        # tracemalloc slows the per-hull draw calls about 15x, so this one
        # runs 10x fewer samples
        (lambda samples: check_ball_convexity(samples, 32, seed=5), (2_000, 20_000)),
    ],
    ids=["triangle", "sandwich", "convexity"],
)
def test_sampler_memory_does_not_grow_with_samples(sampler, counts):
    # a 10x larger sample stays under the same cap: the draws are streamed
    for samples in counts:
        tracemalloc.start()
        try:
            sampler(samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (samples, peak)


def _hull_group_edges(dim):
    """Sample counts around one and two hull groups at this dim."""
    combos = 8 * max(1, _CHUNK_ENTRIES // (6 * dim))
    return (combos - 1, combos, combos + 1, 2 * combos + 1)


# the oracle takes a radius; the check uses its fixed one. Dim 1's hull
# group holds 5,456 combinations, which the loop takes 1.8 s over, so dim 1
# keeps the small counts
@pytest.mark.parametrize("rho", [proc._BALL_RADIUS])
@pytest.mark.parametrize("dim", [1, 6, 32, WIDE_DIM])
def test_ball_convexity_matches_per_combination_loop(dim, rho):
    counts = (1, 7, 8, 9, 1000) + (_hull_group_edges(dim) if dim > 1 else ())
    for seed, samples in enumerate(counts):
        want = _ball_convexity_loop(samples, dim, rho, seed)
        assert check_ball_convexity(samples, dim, seed) == want


SAMPLING_FAILED = "could not sample inside a radius-0.3 ball around a point"


def test_ball_convexity_reports_sampler_failure(monkeypatch):
    def message(center):
        return (
            "could not sample inside a radius-0.3 ball around a point with "
            f"max coordinate {np.max(np.abs(center)):.3g}"
        )

    monkeypatch.setattr(proc, "_ball_points", lambda c, *args: (c, np.arange(len(c))))
    first = np.random.default_rng(0).standard_normal(4)
    with pytest.raises(OrthoSubselectError, match=SAMPLING_FAILED) as err:
        check_ball_convexity(10, 4, seed=0)
    assert str(err.value) == message(first)

    # only the second hull (points 6..11) fails: its center is named
    seen = []

    def second_hull_fails(centers, *args):
        seen.append(centers[6])
        return centers, np.array([7, 11])

    monkeypatch.setattr(proc, "_ball_points", second_hull_fails)
    with pytest.raises(OrthoSubselectError, match=SAMPLING_FAILED) as err:
        check_ball_convexity(24, 4, seed=0)
    assert str(err.value) == message(seen[0])
    assert str(err.value) != message(first)

    # only the second hull group fails: the sampler runs on to it and names
    # its first center
    groups = []

    def second_group_fails(centers, *args):
        groups.append(centers)
        return centers, np.arange(len(centers) if len(groups) == 2 else 0)

    monkeypatch.setattr(proc, "_ball_points", second_group_fails)
    with pytest.raises(OrthoSubselectError, match=SAMPLING_FAILED) as err:
        check_ball_convexity(_hull_group_edges(32)[-1], 32, seed=5)
    assert len(groups) == 2
    assert str(err.value) == message(groups[1][0])
    assert str(err.value) != message(groups[0][0])
