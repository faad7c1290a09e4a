"""An exact oracle for the deviation of a column subset of the Walsh matrix.

For n a power of two, the rows of ``gen_walsh(n, M)`` are the first n rows
of the Sylvester sign matrix, and their indices are closed under XOR. So
(M/|I|) A_I A_I^T is a convolution over the group Z_2^log2(n), and its
eigenvalues are n c_k / |I|, where c_k counts the 0-based columns j of I with
j mod n = k. The deviation is then a ratio of integers, computed here without
rounding, independently of LAPACK.
"""

import contextlib
import functools
import hashlib
import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden.record import CASES
from ortho_subselect import cli, gen_walsh, selection
from ortho_subselect.linalg import _gram_extremes
from ortho_subselect.selection import (
    DEFAULT_KAPPA,
    DEFAULT_MAX_RETRIES,
    _cascade,
    _size_floor,
)

U = np.finfo(np.float64).eps / 2  # unit roundoff


def walsh_exact_deviation(n: int, cols) -> Fraction:
    """max_k |n c_k - |I|| / |I| for the nonempty 0-based columns ``cols``
    of ``gen_walsh(n, M)``, n a power of two."""
    counts = np.bincount(np.asarray(cols) % n, minlength=n)
    return Fraction(int(np.max(np.abs(n * counts - len(cols)))), len(cols))


def walsh_exact_extremes(n: int, cols) -> tuple[float, float, float]:
    """(lambda_min, lambda_max, deviation) of the nonempty 0-based columns
    ``cols`` of ``gen_walsh(n, M)``, each the correctly rounded float of its
    exact value: the extremes of n c_k / |I|.

    For |I| < 2^53 a ratio p/|I| above 1/2 or 1/4 lies more than half an
    ulp above it, so ``deviation <= epsilon`` decides exactly at those epsilon.
    """
    counts = np.bincount(np.asarray(cols) % n, minlength=n)
    lo = Fraction(n * int(counts.min()), len(cols))
    hi = Fraction(n * int(counts.max()), len(cols))
    return float(lo), float(hi), float(max(hi - 1, 1 - lo))


def test_walsh_exact_deviation_fixtures():
    assert walsh_exact_deviation(4, range(16)) == 0  # the full set: c_k = M/n
    assert walsh_exact_deviation(4, [0, 1, 2, 3]) == 0  # one column per class
    assert walsh_exact_deviation(4, [0, 4]) == 3  # one class: eigenvalues 4, 0, 0, 0
    assert walsh_exact_deviation(2, [0, 1, 3]) == Fraction(1, 3)  # 2*2/3 - 1
    assert walsh_exact_extremes(4, [0, 4]) == (0.0, 4.0, 3.0)
    assert walsh_exact_extremes(2, [0, 1, 3]) == (2 / 3, 4 / 3, 1 / 3)


@functools.lru_cache(maxsize=8)  # n = 256, M = 4096 alone holds 8 MiB
def _walsh(n: int, m: int):
    return gen_walsh(n, m)


@settings(max_examples=200, deadline=None)
@given(
    log_n=st.integers(1, 8),
    log_ratio=st.integers(0, 4),
    keep=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_extremes_matches_walsh_oracle(log_n, log_ratio, keep, seed):
    # a random subset of each size scale, from one column to all of them
    n, m = 2**log_n, 2 ** (log_n + log_ratio)
    rng = np.random.default_rng(seed)
    cols = np.flatnonzero(rng.random(m) < keep)
    if cols.size == 0:
        cols = rng.integers(0, m, size=1)
    exact = walsh_exact_deviation(n, cols)
    dev = _gram_extremes(_walsh(n, m), cols)[2]
    # worst measured over 1,600 random subsets: 2.4 n u max(1, dev)
    assert abs(dev - float(exact)) <= 8 * n * U * max(1.0, float(exact))


def test_study_n128_tie_census(monkeypatch, tmp_path):
    # every Gram the criterion-3 study extended to n = 128 evaluates, decided
    # again exactly: 921 window-valid draws in _cascade and the 50 trials'
    # final certificates. The counts follow the trajectories that the golden
    # record study_walsh_n128 pins; how rounding decides the ties is not pinned.
    draws, finals = [], []
    cascade = selection._cascade

    def recording(extremes, *args):
        (a,) = extremes.args  # select_subset passes partial(_gram_extremes, a)

        def recorded(cols):
            out = extremes(cols)
            draws.append((a.n, cols.copy(), out[2]))
            return out

        cols, steps = cascade(recorded, *args)
        # the deviation _certificate computes for the final columns
        finals.append((a.n, cols.copy(), extremes(cols)[2]))
        return cols, steps

    monkeypatch.setattr(selection, "_cascade", recording)
    monkeypatch.chdir(tmp_path)
    argv = CASES["study_walsh_n128"]["argv"]
    assert argv[argv.index("--epsilon") + 1] == "0.5"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert (len(draws), len(finals)) == (921, 50)

    half = Fraction(1, 2)
    ties = []
    for n, cols, dev in draws + finals:
        exact = walsh_exact_deviation(n, cols)
        if exact == half:
            ties.append((n, len(cols)))
        else:
            assert (dev <= 0.5) == (exact <= half), (n, len(cols), dev, exact)
    # 7 distinct draws tie, and so does the final certificate of the trial
    # that kept one of them
    assert sorted(ties) == [(32, 256)] * 5 + [(64, 512)] * 3
    assert sum(walsh_exact_deviation(n, c) == half for n, c, _ in draws) == 7


def test_cascade_dense_decisions_match_walsh_oracle():
    # 40 whole cascades at epsilon 1/2 on the dense Gram, every window-valid
    # draw decided again exactly; only draws whose exact deviation is 1/2
    # may go either way
    draws = []
    shapes = [(n, f * n) for n in (8, 16, 32, 64) for f in (16, 64)]
    for n, m in shapes + [(128, 2048), (256, 4096)]:
        a = gen_walsh(n, m)

        def recorded(cols):
            out = _gram_extremes(a, cols)
            draws.append((out[2], walsh_exact_deviation(n, cols)))
            return out

        floor = _size_floor(n, 1.0, 0.5, DEFAULT_KAPPA)
        for seed in range(4):
            _cascade(recorded, a.m, floor, 0.5, seed, DEFAULT_MAX_RETRIES, 1)
    half = Fraction(1, 2)
    assert len(draws) == 883
    assert sum(exact == half for _, exact in draws) == 8
    for dev, exact in draws:
        assert exact == half or (dev <= 0.5) == (exact <= half), (dev, exact)


# (n, epsilon, seed): each step's (child_size, retries_used) and the SHA-256
# of the final 1-based subset as little-endian int64
PAPER_SCALE = {
    (256, 0.5, 0): (
        [(523795, 0), (261567, 0), (130617, 16), (65248, 13), (32572, 1), (16235, 0),
         (8081, 2)],
        "bc4f496efcfff14538c39af747ae7969729ad86b90f87b059aa5831aac46aa24"),
    (256, 0.5, 1): (
        [(523981, 0), (261637, 0), (130713, 2), (65285, 5), (32588, 0), (16217, 6),
         (8098, 0)],
        "0dc6870661ffd1e924d35676f33cd76a5f4e921acb87aa25fd5e8d3223cffc56"),
    (256, 0.5, 2): (
        [(523919, 3), (261751, 0), (130711, 5), (65337, 1), (32649, 1), (16255, 0),
         (8110, 1)],
        "7cf812eb77919807e4545aca9d8b96ea0c6a1459c00dc6d7e08fb0842c2cbe64"),
    (256, 0.25, 0): (
        [(523795, 0), (261567, 0), (130617, 16), (65248, 13), (32528, 5)],
        "fef4e8f4a37edb6321893b249a93991076edc996200dddcf716a0579c39e0e30"),
    (256, 0.25, 1): (
        [(523981, 0), (261637, 0), (130713, 2), (65285, 5), (32588, 0)],
        "3fd2c0481a74e8c18256cde3e0cdde5dbb34b85088c384b08975de540101dfad"),
    (256, 0.25, 2): (
        [(523919, 3), (261751, 0), (130711, 5), (65337, 1), (32621, 30)],
        "f477b759d1bc99db0e164501c76b85d7cddf9dbdbde8d67a0d40f0ac593fc219"),
    (1024, 0.5, 0): (
        [(523795, 0), (261567, 0), (130617, 16), (65248, 13), (32542, 13)],
        "dc780e121fe303291ffd75522436982a0b27279b71f58628200760d66971cca0"),
    (1024, 0.5, 1): (
        [(523981, 0), (261637, 0), (130713, 2), (65285, 5)],
        "06e9fc565017b09f4cd32d69a2fb155e53213e459d35b2b1cff5d5ceadff319e"),
    (1024, 0.5, 2): (
        [(523919, 3), (261751, 0), (130711, 5), (65337, 1), (32615, 11)],
        "6151309cd385e900beaabad5a3602401edd0e9ca78db991df431a0c82f28533c"),
    (1024, 0.25, 0): (
        [(523795, 0), (261567, 0), (130617, 16)],
        "f5861004b085f81230d3ec98eb03826706ed52944ef13f9960b147a8e426391b"),
    (1024, 0.25, 1): (
        [(523981, 0), (261637, 0), (130811, 30)],
        "304a9d92f18224dcb4799c441ed9bc8a49e53afbc792fcdbe63542d6ec963067"),
    (1024, 0.25, 2): (
        [(523919, 3), (261751, 0), (130797, 15)],
        "ddcf3f130c3b70377edf6eea6b82c5e72e462a733a05e1e52b5e83e45a3385b2"),
    (4096, 0.5, 0): (
        [(523795, 0), (261567, 0)],
        "45d204e7beed3cce1e53b0157ce3030799015258e02cbfd5b347164f9a553b91"),
    (4096, 0.5, 1): (
        [(523981, 0), (261637, 0)],
        "0fb8ff09d92487dfa5a48a44cfd578f7f36a727f1de77a8e8f03dedbeb1b5a09"),
    (4096, 0.5, 2): (
        [(523919, 3), (261751, 0)],
        "9cb80d1727bc9d40a167e6aa69980cd84ddbb978d13e17413532a6b1da284e4d"),
    (4096, 0.25, 0): (
        [(523795, 0)],
        "fccce0be11a678ae48d63706c012f79d54a366b64911fb6a60edf7cdbe7cf614"),
    (4096, 0.25, 1): (
        [(523981, 0)],
        "6e07544fb209a45abf6aca72a6e4542006e20726602284e3dd4ada7b9b15b64c"),
    (4096, 0.25, 2): (
        [(523919, 3)],
        "898f5e7fe91d1299dd07faa04c5e22a32cc57a12805161542a5c437ad22169a0"),
}


@pytest.mark.parametrize("n, epsilon, seed", sorted(PAPER_SCALE))
def test_cascade_pins_walsh_at_paper_scale(n, epsilon, seed):
    # the real cascade at M = 2^20 on exact residue-count extremes, with no
    # matrix: pins the draw stream, the window and the floor at this scale
    steps, digest = PAPER_SCALE[n, epsilon, seed]
    floor = _size_floor(n, 1.0, epsilon, DEFAULT_KAPPA)
    cols, got = _cascade(functools.partial(walsh_exact_extremes, n), 2**20, floor,
                         epsilon, seed, DEFAULT_MAX_RETRIES, 1)
    assert [(s.child_size, s.retries_used) for s in got] == steps
    assert len(cols) == steps[-1][0]
    assert hashlib.sha256((cols + 1).astype("<i8").tobytes()).hexdigest() == digest
