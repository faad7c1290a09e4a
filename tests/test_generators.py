import math

import numpy as np
import pytest

from ortho_subselect import (
    OrthoRowMatrix,
    OrthoSubselectError,
    coherence,
    gen_random_ortho,
    gen_trig,
    gen_walsh,
)

ALL_SHAPES = [(1, 2), (2, 4), (4, 8), (8, 64), (16, 256)]


def test_walsh_one_row():
    a = gen_walsh(1, 2)
    np.testing.assert_allclose(a.mat, [[1 / math.sqrt(2)] * 2], atol=0)


def test_walsh_two_by_two():
    s = 1 / math.sqrt(2)
    a = gen_walsh(2, 2)
    np.testing.assert_allclose(a.mat, [[s, s], [s, -s]], atol=0)


def test_walsh_entries_flat_and_coherent():
    for n, m in ALL_SHAPES:
        a = gen_walsh(n, m)
        assert np.all(np.abs(np.abs(a.mat) - 1 / math.sqrt(m)) == 0.0)
        assert abs(coherence(a).t - 1.0) <= 1e-12


def test_walsh_rejects_non_power_of_two():
    with pytest.raises(OrthoSubselectError, match="M must be a power of 2, got 12"):
        gen_walsh(4, 12)


def test_trig_dc_row():
    a = gen_trig(1, 7)
    np.testing.assert_allclose(a.mat, np.full((1, 7), 1 / math.sqrt(7)), atol=1e-15)


def test_trig_orthonormal():
    for n, m in [(2, 4), (8, 100), (5, 5), (16, 50)]:
        a = gen_trig(n, m)
        assert np.max(np.abs(a.mat @ a.mat.T - np.eye(n))) <= 1e-10


def test_trig_coherence_modest():
    assert coherence(gen_trig(8, 100)).t <= 2.0


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


def test_random_ortho_rows_orthonormal():
    a = gen_random_ortho(4, 64, seed=7)
    assert np.max(np.abs(a.mat @ a.mat.T - np.eye(4))) <= 1e-10


def test_generator_outputs_satisfy_trace_identity():
    # sum over columns of squared column norms equals n
    for gen in (
        lambda n, m: gen_walsh(n, m),
        lambda n, m: gen_trig(n, m),
        lambda n, m: gen_random_ortho(n, m, seed=1),
    ):
        for n, m in [(2, 4), (4, 16)]:
            a = gen(n, m)
            norms = coherence(a).per_column_norms
            assert abs(sum(x * x for x in norms) - n) <= 1e-8


def test_coherence_identity_rows():
    a = OrthoRowMatrix(np.eye(3, 12))
    assert abs(coherence(a).t - math.sqrt(12 / 3)) <= 1e-12
    assert coherence(a).argmax_column == 1


def test_coherence_skewed_row():
    a = OrthoRowMatrix(np.array([[math.sqrt(0.8), math.sqrt(0.2)]]))
    rep = coherence(a)
    assert abs(rep.t - math.sqrt(2.0) * math.sqrt(0.8)) <= 1e-12
    assert rep.argmax_column == 1


def test_generator_shape_validation():
    with pytest.raises(ValueError):
        gen_walsh(4, 2)
    with pytest.raises(ValueError):
        gen_trig(5, 4)
    with pytest.raises(ValueError):
        gen_random_ortho(0, 4, seed=0)


@pytest.mark.parametrize("n, m", [(32, 16384), (7, 301)])
def test_coherence_argmax_ignores_rounding_on_trig(n, m):
    # every trig column norm is sqrt(n/M) in exact arithmetic
    rep = coherence(gen_trig(n, m))
    assert rep.argmax_column == 1
    assert rep.t == math.sqrt(m / n) * max(rep.per_column_norms)


def test_coherence_argmax_finds_a_later_maximum():
    c, s = math.sqrt(0.3), math.sqrt(0.7)
    a = OrthoRowMatrix(np.array([[c, s, 0.0], [0.0, 0.0, 1.0]]))
    rep = coherence(a)
    assert rep.argmax_column == 3
    assert rep.t == math.sqrt(3 / 2)
    # a lead of 1e-9, far above rounding, still wins
    a = OrthoRowMatrix(np.sqrt([[0.5 - 1e-9, 0.5 + 1e-9]]))
    assert coherence(a).argmax_column == 2
