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
    gen_trig,
    gen_walsh,
    select_subset,
    uniform_baseline,
)
from ortho_subselect.cli import StudyConfig, _generate
from ortho_subselect.processes import check_sandwich


def _study(**kwargs):
    args = {"kind": "walsh", "n_list": (8, 16), "m_factor": 16, "epsilon": 0.5,
            "trials": 2, "seed": 0, **kwargs}
    return StudyConfig(**args)


E1 = OrthoRowMatrix(np.eye(1, 4))

# the argument checks that raised a plain ValueError before the package had
# one error type, each with the message it has always had
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
    "process_trials": (lambda: estimate_process(E1, trials=1, seed=0),
                       "need at least 2 trials, got 1"),
    "gaussian_trials": (lambda: gaussian_sup_estimates(E1, [0.0] * 4, 0, seed=0),
                        "need at least 1 trial, got 0"),
    "sandwich_samples": (lambda: check_sandwich(-1, 2, seed=0),
                         "need samples >= 0 and dim >= 1"),
    "triangle_dim": (lambda: check_quasi_triangle(1, 0, seed=0),
                     "need samples >= 1 and dim >= 1"),
    "convexity_samples": (lambda: check_ball_convexity(0, 2, seed=0),
                          "need samples >= 1 and dim >= 1"),
    "select_retries": (lambda: select_subset(gen_walsh(2, 4), 0.5, seed=0, max_retries=0),
                       "max_retries must be >= 1, got 0"),
    "select_kappa": (lambda: select_subset(gen_walsh(2, 4), 0.5, seed=0, kappa=-1.0),
                     "kappa must be finite and >= 0, got -1.0"),
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
