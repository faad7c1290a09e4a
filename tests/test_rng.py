import inspect
import itertools
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ortho_subselect
from ortho_subselect import child_seed
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
    [(0, 0), (0, 1), (0, _SEED_CHUNK - 1), (0, _SEED_CHUNK), (0, _SEED_CHUNK + 1),
     (_SEED_CHUNK - 2, _SEED_CHUNK + 2), (2 * _SEED_CHUNK - 1, 2 * _SEED_CHUNK + 1),
     (5, 5)],
)
def test_trial_rngs_match_default_rng(draw, start, stop):
    # generators start .. stop-1 of trial_rngs(seed, stop); the windows that
    # start mid-chunk check both sides of a chunk edge
    seed = 904337711
    want = _streams((np.random.default_rng(child_seed(seed, k)) for k in range(start, stop)),
                    DRAWS[draw])
    got = itertools.islice(trial_rngs(seed, stop), start, None)
    assert _streams(got, DRAWS[draw]) == want
    assert len(list(trial_rngs(seed, stop))) == stop


def test_trial_rngs_is_lazy_and_ordered():
    rngs = trial_rngs(7, 10**12)  # a list this long would not fit in memory
    for k, rng in enumerate(itertools.islice(rngs, 3)):
        assert rng.integers(2**63) == np.random.default_rng(child_seed(7, k)).integers(2**63)


def test_preset_state_serves_only_pcg64_seeding():
    words = _seed_words(np.array([3], dtype=np.uint64))[0]
    preset = _preset_state_type()
    assert preset(words).generate_state(4, np.uint64) is words
    for n_words, dtype in [(8, np.uint32), (4, np.uint32), (2, np.uint64)]:
        with pytest.raises(ValueError, match="4 uint64 words"):
            preset(words).generate_state(n_words, dtype)


def _loads_numpy_random(module: str) -> bool:
    code = f"import sys, {module}; print('numpy.random' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip() == "True"


def test_importing_the_package_leaves_numpy_random_unloaded():
    # certify never draws, so it should not pay for importing numpy.random;
    # numpy 1.x imports it with numpy itself, which no package can avoid
    assert _loads_numpy_random("ortho_subselect.cli") == _loads_numpy_random("numpy")


def test_public_names_are_pinned():
    # adding or removing a public name takes a deliberate edit of this list
    public = sorted(name for name, value in vars(ortho_subselect).items()
                    if not name.startswith("_") and not inspect.ismodule(value))
    assert public == [
        "HalvingStep", "IsometryCertificate", "OrthoRowMatrix",
        "OrthoSubselectError", "ProcessEstimate", "SelectionTrace",
        "cardinality_window", "certify", "check_ball_convexity",
        "check_quasi_triangle", "child_seed",
        "estimate_process", "gaussian_sup_estimates", "gen_random_ortho", "gen_trig",
        "gen_walsh", "orthonormalize_rows",
        "read_matrix_text", "select_subset", "write_matrix_text",
    ]
    assert len(public) == 20


def test_readme_library_sketch_runs():
    # the README's python block and export count must track the API
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    public = [name for name, value in vars(ortho_subselect).items()
              if not name.startswith("_") and not inspect.ismodule(value)]
    assert f"The package exports {len(public)} names" in readme
