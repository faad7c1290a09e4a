"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Every tolerance and runtime budget is pinned here; nothing is calibrated at
run time.
"""

import itertools
import math
import statistics
import time

import numpy as np

from golden.record import run_cli_process
from ortho_subselect import (
    OrthoRowMatrix,
    certify,
    check_ball_convexity,
    check_quasi_triangle,
    child_seed,
    estimate_process,
    gaussian_sup_estimates,
    gen_random_ortho,
    gen_trig,
    gen_walsh,
    select_subset,
    write_matrix_text,
)
from ortho_subselect.cli import StudyConfig, run_study
from ortho_subselect.processes import check_sandwich


class Criterion:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed <= self.limit
        status = "PASS" if ok else "FAIL"
        print(
            f"[criterion {self.number:02d}] {status} {self.description} "
            f"({elapsed:.2f}s / limit {self.limit:.0f}s)"
        )
        assert elapsed <= self.limit, (
            f"criterion {self.number} exceeded its runtime budget: "
            f"{elapsed:.2f}s > {self.limit}s"
        )
        return False  # propagate any assertion failure


def test_criterion_01_exact_isometry_baseline():
    with Criterion(1, "full index set deviates by at most 1e-10", 10):
        for n in (1, 4, 16, 64):
            for factor in (1, 4, 16):
                m = factor * n
                mats = [gen_walsh(n, m), gen_trig(n, m),
                        gen_random_ortho(n, m, seed=n + factor)]
                for a in mats:
                    assert certify(a, range(1, m + 1)).epsilon_achieved <= 1e-10


def test_criterion_02_certificate_soundness():
    with Criterion(2, "10 seeded selections on 16x256 all certify at 0.5", 30):
        a = gen_walsh(16, 256)
        for seed in range(10):
            cert, _ = select_subset(a, 0.5, seed=seed)
            assert cert.epsilon_achieved <= 0.5
            again = certify(a, cert.subset)
            assert abs(again.lambda_min - cert.lambda_min) <= 1e-10
            assert abs(again.lambda_max - cert.lambda_max) <= 1e-10


def test_criterion_03_n_log_n_scaling():
    with Criterion(3, "median final_size/(n ln n) spread < 3 over n", 300):
        cfg = StudyConfig(kind="walsh", n_list=(8, 16, 32, 64), m_factor=16,
                          epsilon=0.5, trials=10, seed=0)
        rows = run_study(cfg)
        assert all(r.epsilon_achieved <= 0.5 for r in rows)
        medians = []
        for n in cfg.n_list:
            medians.append(
                statistics.median(r.ratio for r in rows if r.n == n)
            )
        spread = max(medians) / min(medians)
        assert spread < 3.0, f"median ratio spread {spread:.2f} >= 3"


def test_criterion_04_epsilon_scaling():
    with Criterion(4, "halving epsilon grows the subset by a factor in [2,8]", 120):
        a = gen_walsh(16, 512)
        med = {}
        for eps in (0.5, 0.25):
            finals = []
            for seed in range(10):
                cert, _ = select_subset(a, eps, seed=seed)
                assert cert.epsilon_achieved <= eps
                finals.append(len(cert.subset))
            med[eps] = statistics.median(finals)
        factor = med[0.25] / med[0.5]
        assert 2.0 <= factor <= 8.0, f"growth factor {factor:.2f} not in [2, 8]"


def test_criterion_05_process_bound_stability():
    with Criterion(5, "sign-process bound_ratio stable within factor 2", 120):
        fixture = estimate_process(OrthoRowMatrix(np.eye(1, 64)), trials=200, seed=1)
        assert fixture.mean == 1.0
        ratios = []
        for n, m in ((8, 128), (16, 256), (32, 512)):
            est = estimate_process(gen_walsh(n, m), trials=200, seed=n)
            ratios.append(est.bound_ratio)
        spread = max(ratios) / min(ratios)
        assert spread < 2.0, f"bound_ratio spread {spread:.3f} >= 2"


def test_criterion_06_gaussian_sup_fixture():
    with Criterion(6, "E||P_W g||_inf matches the half-normal mean", 10):
        trials = 10_000
        mean_inf, _ = gaussian_sup_estimates(
            OrthoRowMatrix(np.eye(1, 64)), np.zeros(64), trials, seed=2
        )
        expected = math.sqrt(2.0 / math.pi)
        se = math.sqrt(1.0 - 2.0 / math.pi) / math.sqrt(trials)
        gap = abs(mean_inf - expected)
        assert gap <= 3.0 * se, f"gap {gap:.5f} > 3 se ({3 * se:.5f})"


def test_criterion_07_quasimetric_hard_properties():
    with Criterion(7, "factor-4 triangle/convexity and sandwich, no violations", 60):
        for dim in (2, 8, 32):
            ratio = check_quasi_triangle(100_000, dim, seed=dim)
            assert ratio <= 4.0, f"triangle ratio {ratio} > 4 in dim {dim}"
            rng = np.random.default_rng(100 + dim)
            x = rng.standard_normal((100_000, dim))
            y = rng.standard_normal((100_000, dim))
            d = np.sqrt(np.sum((x - y) ** 2 * (x * x + y * y), axis=1))
            dt = np.sqrt(np.sum((x * x - y * y) ** 2, axis=1))
            assert np.all(dt <= math.sqrt(2.0) * d), "sandwich violated"
            ratio = check_sandwich(100_000, dim, seed=dim)
            assert ratio <= 1.0, f"sandwich ratio {ratio} > 1 in dim {dim}"
        ratio = check_ball_convexity(10_000, 6, seed=3)
        assert ratio <= 4.0, f"convexity ratio {ratio} > 4"


def test_criterion_08_exhaustive_oracle_on_tiny_instances():
    with Criterion(8, "selection never beats the exhaustive optimum", 10):
        eps = 0.6
        for seed in range(5):
            a = gen_random_ortho(2, 8, seed=seed)
            best = None
            devs = {}
            for size in range(1, 9):
                for combo in itertools.combinations(range(1, 9), size):
                    dev = certify(a, combo).epsilon_achieved
                    devs[combo] = dev
                    if dev <= eps and best is None:
                        best = size
                if best is not None:
                    break
            assert best is not None  # the full set always certifies
            cert, _ = select_subset(a, eps, seed=seed)
            assert len(cert.subset) >= best
            # the certificate must agree exactly with the exhaustive pass
            recomputed = certify(a, cert.subset).epsilon_achieved
            assert cert.epsilon_achieved == recomputed
            again = certify(a, cert.subset)
            assert (again.lambda_min, again.lambda_max) == (
                cert.lambda_min, cert.lambda_max
            )


def _serial_jacobi_extremes(s, tol=1e-12, max_sweeps=100):
    """Textbook cyclic Jacobi, one rotation at a time (test oracle)."""
    a = np.array(s, dtype=float)
    a = 0.5 * (a + a.T)
    k = a.shape[0]
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, float((a * a).sum() - (np.diagonal(a) ** 2).sum())))
        if off <= tol:
            break
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = a[p, q]
                if abs(apq) < 1e-200:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1 + t * t)
                sn = t * c
                rot = np.eye(k)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = sn
                rot[q, p] = -sn
                a = rot.T @ a @ rot
    d = np.diagonal(a)
    return float(d.min()), float(d.max())


def _selection_subsets():
    """(matrix, subset) pairs whose Grams real selections hand to the eigensolver.

    First the two criterion-3 study draws (seed 0) whose exact deviation is
    the budget 0.5 itself: (n=32, trial 9) step 0 retry 2 and (n=64, trial
    5) step 0 retry 15. Then every accepted step of four Walsh 16x256
    selections.
    """
    pairs = []
    for n, trial, retry in ((32, 9, 2), (64, 5, 15)):
        a = gen_walsh(n, 16 * n)
        step_seed = child_seed(child_seed(0, n, trial), 0)
        rng = np.random.default_rng(child_seed(step_seed, retry))
        keep = rng.integers(0, 2, size=a.m).astype(bool)
        pairs.append((a, np.flatnonzero(keep) + 1))
    a = gen_walsh(16, 256)
    for seed in range(4):
        _, trace = select_subset(a, 0.5, seed=seed)
        cols = np.arange(a.m)
        for step in trace.steps:  # replay each accepted draw
            rng = np.random.default_rng(child_seed(step.seed, step.retries_used))
            cols = cols[rng.integers(0, 2, size=len(cols)).astype(bool)]
            pairs.append((a, cols + 1))
    assert len(pairs) == 7
    return pairs


def _random_subsets():
    """100 seeded (10 x 40 random orthonormal rows, random subset) pairs;
    subsets of fewer than 10 columns give singular Grams."""
    rng = np.random.default_rng(77)
    pairs = []
    for seed in range(100):
        subset = np.sort(rng.choice(40, size=int(rng.integers(1, 41)), replace=False)) + 1
        pairs.append((gen_random_ortho(10, 40, seed=seed), subset))
    return pairs


def test_criterion_09_eigensolver_oracle():
    with Criterion(9, "eigen extremes match serial Jacobi to 1e-8", 5):
        for a, subset in _random_subsets() + _selection_subsets():
            x = a.mat[:, subset - 1]
            lo, hi = _serial_jacobi_extremes(a.m / len(subset) * (x @ x.T))
            cert = certify(a, subset)
            assert abs(cert.lambda_min - lo) <= 1e-8
            assert abs(cert.lambda_max - hi) <= 1e-8


def test_criterion_10_cli_determinism(tmp_path):
    with Criterion(10, "repeated CLI runs are byte-identical", 60):
        mat = tmp_path / "m.txt"
        walsh = tmp_path / "w.txt"
        write_matrix_text(walsh, gen_walsh(8, 64).mat)

        def run(*args):
            code, out, _ = run_cli_process(list(args), tmp_path)
            assert code == 0
            return out

        def once(tag):
            blob = {}
            out = run("gen", "--kind", "random", "--n", "8", "--M", "64",
                      "--seed", "3", "--output", str(mat))
            blob["gen"] = (out, mat.read_bytes())
            cert = tmp_path / f"c{tag}.json"
            trace = tmp_path / f"t{tag}.json"
            out = run("select", "--input", str(mat), "--epsilon", "0.6", "--seed", "4",
                      "--output", str(cert), "--trace", str(trace))
            blob["select"] = (out, cert.read_bytes(), trace.read_bytes())
            cert = tmp_path / f"w{tag}.json"
            out = run("select", "--input", str(walsh), "--epsilon", "0.6", "--seed", "11",
                      "--output", str(cert))
            blob["select_walsh"] = (out, cert.read_bytes())
            csv = tmp_path / f"s{tag}.csv"
            out = run("study", "--kind", "walsh", "--n-list", "8,16", "--m-factor", "8",
                      "--epsilon", "0.5", "--trials", "4", "--seed", "5",
                      "--output", str(csv))
            blob["study"] = (out, csv.read_bytes())
            csv = tmp_path / f"s{tag}_3.csv"
            out = run("study", "--kind", "walsh", "--n-list", "8,16", "--m-factor", "8",
                      "--epsilon", "0.5", "--trials", "3", "--seed", "5",
                      "--output", str(csv))
            blob["study_3_trials"] = (out, csv.read_bytes())
            blob["verify"] = run("verify", "--suite", "quasimetric", "--trials", "20000",
                                 "--seed", "6")
            return blob

        first = once("a")
        second = once("b")
        third = once("c")
        assert first == second == third
