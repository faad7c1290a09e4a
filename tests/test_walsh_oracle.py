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
import io
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from golden.record import CASES
from ortho_subselect import cli, gen_walsh, selection
from ortho_subselect.linalg import _gram_extremes

U = np.finfo(np.float64).eps / 2  # unit roundoff


def walsh_exact_deviation(n: int, cols) -> Fraction:
    """max_k |n c_k - |I|| / |I| for the nonempty 0-based columns ``cols``
    of ``gen_walsh(n, M)``, n a power of two."""
    counts = np.bincount(np.asarray(cols) % n, minlength=n)
    return Fraction(int(np.max(np.abs(n * counts - len(cols)))), len(cols))


def test_walsh_exact_deviation_fixtures():
    assert walsh_exact_deviation(4, range(16)) == 0  # the full set: c_k = M/n
    assert walsh_exact_deviation(4, [0, 1, 2, 3]) == 0  # one column per class
    assert walsh_exact_deviation(4, [0, 4]) == 3  # one class: eigenvalues 4, 0, 0, 0
    assert walsh_exact_deviation(2, [0, 1, 3]) == Fraction(1, 3)  # 2*2/3 - 1


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
    # again exactly: 921 window-valid draws in _halve_step and the 50 trials'
    # final certificates. The counts follow the trajectories that the golden
    # record study_walsh_n128 pins; how rounding decides the ties is not pinned.
    draws, finals, in_step = [], [], []
    gram_extremes, halve_step = selection._gram_extremes, selection._halve_step

    def recording(a, cols):
        out = gram_extremes(a, cols)
        (draws if in_step else finals).append((a.n, cols.copy(), out[2]))
        return out

    def halving(*args, **kwargs):
        in_step.append(True)
        try:
            return halve_step(*args, **kwargs)
        finally:
            in_step.pop()

    monkeypatch.setattr(selection, "_gram_extremes", recording)
    monkeypatch.setattr(selection, "_halve_step", halving)
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
