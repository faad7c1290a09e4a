"""Import the package before any test module loads numpy, so that every
in-process test runs at the package's OPENBLAS_NUM_THREADS default."""

import ortho_subselect  # noqa: F401
