import itertools
import subprocess
import sys

import numpy as np
import pytest

from ortho_subselect import child_seed, make_rng
from ortho_subselect.rng import _SEED_CHUNK, _preset_state_type, _seed_words, trial_rngs

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _seedsequence_words(seeds):
    """Reference: numpy's own SeedSequence, one seed at a time."""
    return np.array(
        [np.random.SeedSequence(int(s)).generate_state(4, np.uint64) for s in seeds],
        dtype=np.uint64,
    ).reshape(len(seeds), 4)


def test_seed_words_match_seedsequence_on_edge_seeds():
    got = _seed_words(np.array(EDGE_SEEDS, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.shape == (len(EDGE_SEEDS), 4)
    assert np.array_equal(got, _seedsequence_words(EDGE_SEEDS))


@pytest.mark.parametrize("bits", [32, 64])
def test_seed_words_match_seedsequence_on_random_seeds(bits):
    rng = np.random.default_rng(bits)
    seeds = rng.integers(0, 2**bits - 1, size=10_000, dtype=np.uint64, endpoint=True)
    assert np.array_equal(_seed_words(seeds), _seedsequence_words(seeds))


def _streams(rngs, draw):
    return [draw(rng) for rng in rngs]


DRAWS = {
    "standard_normal": lambda rng: rng.standard_normal(5).tobytes(),
    "integers": lambda rng: rng.integers(0, 2, size=70).tobytes(),
}


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize(
    "start, stop",
    [(0, 1), (0, _SEED_CHUNK - 1), (0, _SEED_CHUNK + 1), (_SEED_CHUNK - 2, _SEED_CHUNK + 2),
     (2 * _SEED_CHUNK - 1, 2 * _SEED_CHUNK + 1), (5, 5)],
)
def test_trial_rngs_match_default_rng(draw, start, stop):
    seed = 904337711
    want = _streams((make_rng(child_seed(seed, k)) for k in range(start, stop)), DRAWS[draw])
    assert _streams(trial_rngs(seed, start, stop), DRAWS[draw]) == want


def test_trial_rngs_is_lazy_and_ordered():
    rngs = trial_rngs(7, 0, 10**12)  # a list this long would not fit in memory
    for k, rng in enumerate(itertools.islice(rngs, 3)):
        assert rng.integers(2**63) == make_rng(child_seed(7, k)).integers(2**63)


def test_preset_state_serves_only_pcg64_seeding():
    words = _seed_words(np.array([3], dtype=np.uint64))[0]
    preset = _preset_state_type()
    assert preset(words).generate_state(4, np.uint64) is words
    for n_words, dtype in [(8, np.uint32), (4, np.uint32), (2, np.uint64)]:
        with pytest.raises(ValueError, match="4 uint64 words"):
            preset(words).generate_state(n_words, dtype)


def test_importing_the_package_leaves_numpy_random_unloaded():
    # certify never draws, so it should not pay for importing numpy.random
    code = "import sys, ortho_subselect.cli; print('numpy.random' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.stdout.strip() == "False", res.stderr
