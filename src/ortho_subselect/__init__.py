"""Column-subset selection for orthonormal-row matrices.

Selects a small set I of columns such that sqrt(M/|I|) times the restriction
of A^T to I is a (1 +- eps)-isometry, certifies the result exactly through
the extreme eigenvalues of the rescaled subset Gram matrix, and ships
Monte-Carlo harnesses for the probabilistic machinery behind the selection.
"""

from .errors import (
    BadSignVector,
    BadWeights,
    EmptySubset,
    IndexOutOfRange,
    InvalidEpsilon,
    MatrixFormatError,
    NotOrthonormal,
    NotPowerOfTwo,
    OrthoSubselectError,
    RankDeficient,
    RetriesExhausted,
    SamplingFailed,
    SizeOutOfRange,
)
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
    SubspaceBasis,
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
