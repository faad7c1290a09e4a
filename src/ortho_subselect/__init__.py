"""Column-subset selection for orthonormal-row matrices.

Selects a small set I of columns such that sqrt(M/|I|) times the restriction
of A^T to I is a (1 +- eps)-isometry, certifies the result exactly through
the extreme eigenvalues of the rescaled subset Gram matrix, and ships
Monte-Carlo harnesses for the probabilistic machinery behind the selection.
"""

import os

# OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, when numpy loads it, so the
# setdefault below stays ahead of every import that can load numpy. After the
# library loads and after each threaded call, an idle BLAS worker busy-waits
# 2**timeout cycles before it sleeps. On a 2-CPU x86-64 host (15-run
# medians), a bare `import numpy` took 0.346 s of CPU for 0.222 s of wall at
# OpenBLAS's default of 28, and 0.220 s of CPU at 20, close to the 0.213 s of
# the shortest timeout, 4. At 20 the criterion-3 study's CPU time also fell
# to its wall time, and select on a 256 x 16384 Walsh matrix, where threads
# help, kept its wall time. The thread count, and with it every output byte,
# is left to OpenBLAS; a caller's own setting wins.
_OPENBLAS_THREAD_TIMEOUT = "20"
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", _OPENBLAS_THREAD_TIMEOUT)

from .errors import OrthoSubselectError, RetriesExhausted
from .generators import CoherenceReport, coherence, gen_random_ortho, gen_trig, gen_walsh
from .linalg import (
    OrthoRowMatrix,
    SubsetIndex,
    deviation,
    orthonormalize_rows,
    read_matrix_text,
    write_matrix_text,
)
from .processes import (
    ProcessEstimate,
    check_ball_convexity,
    check_quasi_triangle,
    estimate_process,
    gaussian_sup_estimates,
    proj_l1_l2_norm,
    sup_process_sample,
)
from .rng import child_seed, make_rng, rademacher
from .selection import (
    HalvingStep,
    IsometryCertificate,
    SelectionTrace,
    cardinality_window,
    certify,
    halve_step,
    select_subset,
    uniform_baseline,
)

__version__ = "0.1.0"
