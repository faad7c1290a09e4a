"""Column-subset selection for orthonormal-row matrices.

Selects a small set I of columns such that sqrt(M/|I|) times the restriction
of A^T to I is a (1 +- eps)-isometry, certifies the result exactly through
the extreme eigenvalues of the rescaled subset Gram matrix, and ships
Monte-Carlo harnesses for the probabilistic machinery behind the selection.
"""

import os

# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, so the
# setdefault stays ahead of every import that can load numpy. Its LAPACK
# rounds per thread count, and the output bytes are pinned at one thread; a
# caller's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import OrthoSubselectError
from .generators import gen_random_ortho, gen_trig, gen_walsh
from .linalg import OrthoRowMatrix, orthonormalize_rows, read_matrix_text, write_matrix_text
from .processes import (
    ProcessEstimate,
    check_ball_convexity,
    check_quasi_triangle,
    estimate_process,
    gaussian_sup_estimates,
)
from .rng import child_seed
from .selection import (
    HalvingStep,
    IsometryCertificate,
    SelectionTrace,
    cardinality_window,
    certify,
    select_subset,
)

__version__ = "0.1.0"
