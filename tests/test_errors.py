"""The error policy: every input the package rejects raises OrthoSubselectError,
the package's one error type."""

import inspect

import numpy as np
import pytest

from ortho_subselect import (
    OrthoRowMatrix,
    OrthoSubselectError,
    certify,
    check_ball_convexity,
    check_quasi_triangle,
    errors,
    estimate_process,
    gaussian_sup_estimates,
    gen_random_ortho,
    gen_trig,
    gen_walsh,
    orthonormalize_rows,
    uniform_baseline,
)
from ortho_subselect.cli import parse_subset_spec
from ortho_subselect.processes import check_sandwich


E1 = OrthoRowMatrix(np.eye(1, 4))
FLAT = "indices must be flat integers, got "


def _not_orthonormal(err):
    return f"rows not orthonormal: max |A A^T - I| = {err} exceeds 1.000e-10"


# the library's argument checks, each with its exact message and asserted
# nowhere else; select_subset's are in tests/test_selection.py, whose test
# also shows that no draw is made
ARGUMENT_CHECKS = {
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
    "sandwich_dim": (lambda: check_sandwich(10, 0, seed=0),
                     "need samples >= 0 and dim >= 1"),
    "baseline_trials": (lambda: uniform_baseline(gen_walsh(2, 4), 2, seed=0, trials=0),
                        "trials must be >= 1, got 0"),
    "baseline_size_0": (lambda: uniform_baseline(gen_walsh(4, 16), 0, seed=0, trials=1),
                        "size must be in 1..16, got 0"),
    "baseline_size_above_m": (lambda: uniform_baseline(gen_walsh(4, 16), 17, seed=0, trials=1),
                              "size must be in 1..16, got 17"),
    "matrix_not_orthonormal": (lambda: OrthoRowMatrix(np.array([[1.0, 1.0]])),
                               _not_orthonormal("1.000e+00")),
    "matrix_equal_rows": (lambda: OrthoRowMatrix(np.ones((2, 4))),
                          _not_orthonormal("4.000e+00")),
    "matrix_rank_2_of_3": (lambda: OrthoRowMatrix(np.diag([1.0, 1.0, 0.0])),
                           _not_orthonormal("1.000e+00")),
    "matrix_n_above_m": (lambda: OrthoRowMatrix(np.ones((3, 2))), "need n <= M, got 3x2"),
    "orthonormalize_dependent_row": (lambda: orthonormalize_rows([[1.0, 0.0], [2.0, 0.0]]),
                                     "row 2 is linearly dependent (residual norm 0.000e+00)"),
    # certify's subset checks; a subset carries no width, so one valid for a
    # wider matrix is out of range
    "certify_empty": (lambda: certify(E1, ()), "subset must contain at least one column index"),
    "certify_empty_intp": (lambda: certify(E1, np.array([], dtype=np.intp)),
                           "subset must contain at least one column index"),
    "certify_index_0": (lambda: certify(E1, (0, 1)), "indices must lie in 1..4, got range [0, 1]"),
    "certify_index_above_m": (lambda: certify(E1, (1, 5)),
                              "indices must lie in 1..4, got range [1, 5]"),
    "certify_wider_subset": (lambda: certify(E1, (1, 2, 3, 4, 5)),
                             "indices must lie in 1..4, got range [1, 5]"),
    "certify_decreasing": (lambda: certify(E1, (2, 1)), "indices must be strictly increasing"),
    "certify_decreasing_then_equal": (lambda: certify(E1, (2, 1, 1)),
                                      "indices must be strictly increasing"),
    "certify_duplicate": (lambda: certify(E1, parse_subset_spec("2,1,2")), "duplicate index 2"),
    # int() would truncate these floats to (1, 2)
    "certify_float": (lambda: certify(E1, (1.7, 2.2)), FLAT + "float64"),
    "certify_bool": (lambda: certify(E1, (True, False)), FLAT + "bool"),
    # numpy reads the mixed sequence as int64, True as 1
    "certify_bool_among_ints": (lambda: certify(E1, (True, 3)), FLAT + "bool"),
    # numpy's default integer: int32 on Windows before numpy 2
    "certify_nested": (lambda: certify(E1, ((1, 2),)), FLAT + str(np.asarray(1).dtype)),
    "certify_object": (lambda: certify(E1, (1.5, 10**20)), FLAT + "object"),
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
