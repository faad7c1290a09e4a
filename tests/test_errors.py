"""The error policy: every input the package rejects raises OrthoSubselectError,
the package's one error type."""

import inspect

import numpy as np
import pytest

from ortho_subselect import (
    OrthoRowMatrix,
    OrthoSubselectError,
    check_ball_convexity,
    check_quasi_triangle,
    errors,
    estimate_process,
    gaussian_sup_estimates,
    gen_random_ortho,
    gen_trig,
    gen_walsh,
    uniform_baseline,
)
from ortho_subselect.cli import StudyConfig, _generate
from ortho_subselect.processes import check_sandwich


def _study(**kwargs):
    args = {"kind": "walsh", "n_list": (8, 16), "m_factor": 16, "epsilon": 0.5,
            "trials": 2, "seed": 0, **kwargs}
    return StudyConfig(**args)


E1 = OrthoRowMatrix(np.eye(1, 4))

# the library's argument checks, each with its exact message; select_subset's
# are in tests/test_selection.py, whose test also shows that no draw is made
ARGUMENT_CHECKS = {
    "study_n_list": (lambda: _study(n_list=(16, 8)),
                     "n_list must be nonempty and strictly ascending"),
    "study_n_below_2": (lambda: _study(n_list=(1, 2)),
                        "study requires n >= 2 (ratio divides by n ln n)"),
    "study_m_factor": (lambda: _study(m_factor=0), "m_factor must be >= 1"),
    "study_epsilon": (lambda: _study(epsilon=1.0), "epsilon must be in (0, 1)"),
    "study_trials": (lambda: _study(trials=0), "trials must be >= 1"),
    "generator_kind": (lambda: _generate("nope", 4, 8, 0),
                       "unknown generator kind 'nope'"),
    "generator_shape": (lambda: gen_trig(5, 4), "need 1 <= n <= M, got n=5, M=4"),
    "walsh_shape": (lambda: gen_walsh(4, 2), "need 1 <= n <= M, got n=4, M=2"),
    "walsh_power_of_two": (lambda: gen_walsh(4, 12), "M must be a power of 2, got 12"),
    "random_shape": (lambda: gen_random_ortho(0, 4, seed=0),
                     "need 1 <= n <= M, got n=0, M=4"),
    "process_trials": (lambda: estimate_process(E1, trials=1, seed=0),
                       "need at least 2 trials, got 1"),
    "gaussian_trials": (lambda: gaussian_sup_estimates(E1, [0.0] * 4, 0, seed=0),
                        "need at least 1 trial, got 0"),
    "gaussian_weights_shape": (lambda: gaussian_sup_estimates(E1, [1.0] * 3, 10, seed=0),
                               "need 4 weights, got shape (3,)"),
    "gaussian_weights_finite": (lambda: gaussian_sup_estimates(E1, [np.nan] * 4, 10, seed=0),
                                "weights must be finite"),
    "sandwich_samples": (lambda: check_sandwich(-1, 2, seed=0),
                         "need samples >= 0 and dim >= 1"),
    "triangle_samples": (lambda: check_quasi_triangle(0, 2, seed=0),
                         "need samples >= 1 and dim >= 1"),
    "triangle_negative_samples": (lambda: check_quasi_triangle(-1, 2, seed=0),
                                  "need samples >= 1 and dim >= 1"),
    "triangle_dim": (lambda: check_quasi_triangle(1, 0, seed=0),
                     "need samples >= 1 and dim >= 1"),
    "convexity_samples": (lambda: check_ball_convexity(0, 2, seed=0),
                          "need samples >= 1 and dim >= 1"),
    "baseline_trials": (lambda: uniform_baseline(gen_walsh(2, 4), 2, seed=0, trials=0),
                        "trials must be >= 1, got 0"),
}


@pytest.mark.parametrize("site", sorted(ARGUMENT_CHECKS))
def test_argument_checks_raise_the_package_error(site):
    call, message = ARGUMENT_CHECKS[site]
    with pytest.raises(OrthoSubselectError) as err:
        call()
    assert str(err.value) == message


def test_errors_module_holds_one_type():
    classes = {name for name, value in vars(errors).items() if inspect.isclass(value)}
    assert classes == {"OrthoSubselectError"}
    assert issubclass(OrthoSubselectError, ValueError)
