import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ortho_subselect import (
    OrthoRowMatrix,
    cli,
    gen_random_ortho,
    gen_trig,
    gen_walsh,
    generators,
)

ALL_SHAPES = [(1, 2), (2, 4), (4, 8), (8, 64), (16, 256)]


def test_walsh_entries_flat_and_coherent():
    for n, m in ALL_SHAPES:
        a = gen_walsh(n, m)
        assert np.all(np.abs(np.abs(a.mat) - 1 / math.sqrt(m)) == 0.0)
        assert abs(a.coherence - 1.0) <= 1e-12


def walsh_by_parity(n: int, m: int) -> np.ndarray:
    """The popcount-parity construction that gen_walsh used before Sylvester's
    doubling, kept as an independent oracle: entry (i, j) is
    (-1)^popcount(i & j) / sqrt(M)."""
    j = np.arange(m, dtype=np.int64)[:, None]
    i = np.arange(n, dtype=np.int64)[None, :]
    x = j & i  # M x n, so its transpose is already column-major
    for shift in (32, 16, 8, 4, 2, 1):  # parity of the popcount of i & j
        x = x ^ (x >> shift)
    signs = 1.0 - 2.0 * (x & 1)
    return signs.T / math.sqrt(m)


@st.composite
def walsh_shapes(draw):
    m = 2 ** draw(st.integers(0, 12))
    return draw(st.integers(1, m)), m


@settings(max_examples=60, deadline=None)
@given(walsh_shapes())
@example((1, 2))
@example((2, 2))
def test_walsh_matches_the_parity_construction(shape):
    n, m = shape
    with mock.patch.object(generators, "OrthoRowMatrix", wraps=OrthoRowMatrix) as spy:
        a = gen_walsh(n, m)
    assert a.mat.tobytes(order="F") == walsh_by_parity(n, m).tobytes(order="F")
    assert a.mat.flags.f_contiguous
    # the matrix is stored as built, not copied
    assert np.shares_memory(spy.call_args.args[0], a.mat)


@pytest.mark.parametrize("n, m", [(64, 1024), (256, 4096)])
def test_walsh_memory_stays_near_the_matrix(n, m):
    # Sylvester's doubling peaks at about 1.2x the matrix
    matrix = 8 * n * m
    tracemalloc.start()
    try:
        gen_walsh(n, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * matrix


def test_trig_dc_row():
    a = gen_trig(1, 7)
    np.testing.assert_allclose(a.mat, np.full((1, 7), 1 / math.sqrt(7)), atol=1e-15)


def test_trig_coherence_modest():
    assert gen_trig(8, 100).coherence <= 2.0


def test_trig_deterministic():
    assert np.array_equal(gen_trig(6, 37).mat, gen_trig(6, 37).mat)


def test_random_ortho_square_is_orthogonal():
    a = gen_random_ortho(3, 3, seed=9)
    assert abs(abs(np.linalg.det(a.mat)) - 1.0) <= 1e-10


def test_random_ortho_deterministic():
    assert np.array_equal(
        gen_random_ortho(4, 64, seed=7).mat, gen_random_ortho(4, 64, seed=7).mat
    )
    assert not np.array_equal(
        gen_random_ortho(4, 64, seed=7).mat, gen_random_ortho(4, 64, seed=8).mat
    )


def test_generator_outputs_satisfy_trace_identity():
    # sum over columns of squared column norms equals n
    for gen in (
        lambda n, m: gen_walsh(n, m),
        lambda n, m: gen_trig(n, m),
        lambda n, m: gen_random_ortho(n, m, seed=1),
    ):
        for n, m in [(2, 4), (4, 16)]:
            a = gen(n, m)
            norms = a.column_norms
            assert abs(sum(x * x for x in norms) - n) <= 1e-8


@pytest.fixture
def gen_report(monkeypatch, tmp_path, capsys):
    """gen's stdout report on a given matrix: ``cli.main(["gen", ...])`` with
    the generator swapped for one that returns the matrix."""
    def report(a: OrthoRowMatrix) -> dict:
        monkeypatch.setitem(cli.GENERATORS, "trig", lambda n, m, seed: a)
        argv = ["gen", "--kind", "trig", "--n", str(a.n), "--M", str(a.m),
                "--output", str(tmp_path / "a.txt")]
        assert cli.main(argv) == 0
        return json.loads(capsys.readouterr().out)

    return report


def test_coherence_identity_rows(gen_report):
    a = OrthoRowMatrix(np.eye(3, 12))
    assert abs(a.coherence - math.sqrt(12 / 3)) <= 1e-12
    assert gen_report(a)["argmax_column"] == 1


def test_coherence_skewed_row(gen_report):
    a = OrthoRowMatrix(np.array([[math.sqrt(0.8), math.sqrt(0.2)]]))
    assert abs(a.coherence - math.sqrt(2.0) * math.sqrt(0.8)) <= 1e-12
    assert gen_report(a)["argmax_column"] == 1


@pytest.mark.parametrize("a", [
    pytest.param(gen_trig(32, 3000), id="trig32x3000"),
    pytest.param(gen_random_ortho(16, 2500, seed=7), id="random16x2500"),
    pytest.param(gen_random_ortho(64, 5000, seed=3), id="random64x5000"),
    pytest.param(gen_walsh(8, 4096), id="walsh8x4096"),
    # the matrices of verify --suite process, whose Q is max(column_norms)
    pytest.param(OrthoRowMatrix(np.eye(1, 64)), id="eye1x64"),
    pytest.param(gen_walsh(8, 128), id="walsh8x128"),
    pytest.param(gen_walsh(16, 256), id="walsh16x256"),
    pytest.param(gen_walsh(32, 512), id="walsh32x512"),
])
def test_coherence_blocks_match_the_one_shot_reduction(a, gen_report):
    # trig and random end in a partial 1024-column block; walsh 8x4096 has four
    # whole ones. The references square the whole matrix at once.
    norms = np.sqrt(np.sum(a.mat * a.mat, axis=0))
    assert a.column_norms.tobytes() == norms.tobytes()
    assert a.column_norms.tobytes() == np.linalg.norm(a.mat, axis=0).tobytes()
    assert a.coherence == math.sqrt(a.m / a.n) * float(np.max(norms))
    report = gen_report(a)
    assert report["t"] == a.coherence
    assert np.array(report["per_column_norms"], dtype=float).tobytes() == norms.tobytes()
    jmax = int(np.argmax(norms >= np.max(norms) * (1.0 - 1e-12)))
    assert report["argmax_column"] == jmax + 1


def test_column_norms_are_cached_and_read_only():
    a = gen_trig(4, 64)
    assert a.column_norms is a.column_norms
    with pytest.raises(ValueError, match="read-only"):
        a.column_norms[0] = 2.0


def test_coherence_memory_stays_below_the_matrix():
    # the first access of column_norms holds one 1024-column block of squares,
    # not a second matrix
    a = gen_walsh(64, 16384)
    tracemalloc.start()
    try:
        a.column_norms
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * a.mat.nbytes


@pytest.mark.parametrize("n, m", [(32, 16384), (7, 301)])
def test_coherence_argmax_ignores_rounding_on_trig(n, m, gen_report):
    # every trig column norm is sqrt(n/M) in exact arithmetic
    report = gen_report(gen_trig(n, m))
    assert report["argmax_column"] == 1
    assert report["t"] == math.sqrt(m / n) * max(report["per_column_norms"])


def test_coherence_argmax_finds_a_later_maximum(gen_report):
    c, s = math.sqrt(0.3), math.sqrt(0.7)
    a = OrthoRowMatrix(np.array([[c, s, 0.0], [0.0, 0.0, 1.0]]))
    report = gen_report(a)
    assert report["argmax_column"] == 3
    assert report["t"] == math.sqrt(3 / 2)
    # a lead of 1e-9, far above rounding, still wins
    a = OrthoRowMatrix(np.sqrt([[0.5 - 1e-9, 0.5 + 1e-9]]))
    assert gen_report(a)["argmax_column"] == 2
