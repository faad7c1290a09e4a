"""Dense linear-algebra kernels.

Row orthonormalization by QR, the isometry deviation functional over a
column subset (extreme eigenvalues of the rescaled subset Gram matrix, via
LAPACK), and the on-disk matrix text format. Matrices are float64 numpy
arrays, stored column-major in ``OrthoRowMatrix``; every function here is
pure and never mutates its arguments.

Public functions check their inputs; orthonormality and rank use the fixed
tolerance ``ORTHO_TOL``. ``_gram_extremes``, the one home of the deviation
formula, takes 0-based column indices and checks nothing.

``read_matrix_text`` reads its file once. Plain files go through numpy's C
parser; any other file, and any plain file that parser does not return as
a finite n x M array, goes through the row-by-row ``_read_matrix_data``,
whose verdict and message are the reader's.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import OrthoSubselectError

ORTHO_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a finite 2-d float64 array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise OrthoSubselectError("expected a nonempty 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise OrthoSubselectError("matrix entries must be finite")
    return a


@dataclass(frozen=True, eq=False)
class OrthoRowMatrix:
    """n x M matrix whose rows are orthonormal, validated on construction.

    Inputs that miss the tolerance are rejected, never silently
    re-orthonormalized; run :func:`orthonormalize_rows` first if that is
    what you want. ``mat`` is stored column-major (copied if the input is not).
    """

    mat: np.ndarray

    def __post_init__(self):
        a = np.asfortranarray(as_matrix(self.mat))
        n, m = a.shape
        if n > m:
            raise OrthoSubselectError(f"need n <= M, got {n}x{m}")
        err = float(np.max(np.abs(a @ a.T - np.eye(n))))
        if err > ORTHO_TOL:
            raise OrthoSubselectError(
                f"rows not orthonormal: max |A A^T - I| = {err:.3e} exceeds "
                f"{ORTHO_TOL:.3e}"
            )
        object.__setattr__(self, "mat", a)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @property
    def m(self) -> int:
        return self.mat.shape[1]


@dataclass(frozen=True)
class SubsetIndex:
    """Strictly increasing 1-based column indices into a width-``m`` matrix."""

    indices: tuple[int, ...]
    m: int

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.ndim == 1 and idx.dtype.kind in "fO" and all(
            type(x) is int for x in self.indices
        ):  # ints beyond int64, which numpy holds as floats or objects
            idx = np.asarray(self.indices, dtype=object)
        elif idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise OrthoSubselectError(f"indices must be flat integers, got {idx.dtype}")
        bad = idx[1:] <= idx[:-1]
        if np.any(bad):
            j = int(np.argmax(bad))
            if idx[j] == idx[j + 1]:
                raise OrthoSubselectError(f"duplicate index {idx[j]}")
            raise OrthoSubselectError("indices must be strictly increasing")
        if idx.size and (idx[0] < 1 or idx[-1] > self.m):
            raise OrthoSubselectError(
                f"indices must lie in 1..{self.m}, got range "
                f"[{idx[0]}, {idx[-1]}]"
            )
        object.__setattr__(self, "indices", tuple(idx.tolist()))

    @classmethod
    def from_iterable(cls, indices, m: int) -> "SubsetIndex":
        """Sort ``indices`` and build a subset; duplicates are rejected."""
        return cls(tuple(sorted(indices)), m)

    @classmethod
    def full(cls, m: int) -> "SubsetIndex":
        return cls(np.arange(1, m + 1), m)

    def zero_based(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp) - 1

    def __len__(self) -> int:
        return len(self.indices)


def orthonormalize_rows(m) -> OrthoRowMatrix:
    """Orthonormalize the rows of ``m``, preserving their span.

    LAPACK QR of the transpose, Q's columns signed like diag(R): the rows
    Gram-Schmidt gives, with |R_ii| the residual norm of row i. Rejects the
    first row whose residual norm is ``ORTHO_TOL`` or below as dependent.
    """
    a = as_matrix(m)
    n, cols = a.shape
    if n > cols:
        raise OrthoSubselectError(f"more rows than columns ({n}x{cols})")
    q, r = np.linalg.qr(a.T)
    rdiag = np.diagonal(r)
    dependent = np.flatnonzero(np.abs(rdiag) <= ORTHO_TOL)
    if dependent.size:
        i = int(dependent[0])
        raise OrthoSubselectError(
            f"row {i + 1} is linearly dependent (residual norm {abs(rdiag[i]):.3e})"
        )
    return OrthoRowMatrix((q * np.sign(rdiag)).T)


def _check_subset(a: OrthoRowMatrix, i: SubsetIndex) -> None:
    if len(i) == 0:
        raise OrthoSubselectError("subset must contain at least one column index")
    if i.m != a.m:
        raise OrthoSubselectError(f"subset is over 1..{i.m} but matrix has {a.m} columns")


def _gram_extremes(a: OrthoRowMatrix, cols: np.ndarray) -> tuple[float, float, float]:
    """(lambda_min, lambda_max, deviation) of (M/|I|) * A_I A_I^T for the
    nonempty 0-based column indices ``cols``, unchecked."""
    x = a.mat[:, cols]
    w = np.linalg.eigvalsh((a.m / len(cols)) * (x @ x.T))
    lo, hi = float(w[0]), float(w[-1])
    return lo, hi, max(hi - 1.0, 1.0 - lo)


def write_matrix_text(path, m) -> None:
    """Write a matrix as `n M` header plus n rows of 17-significant-digit
    floats separated by single spaces."""
    a = as_matrix(m)
    # a handle, not the path: savetxt would gzip a path ending in .gz
    with open(path, "w", encoding="ascii") as f:
        np.savetxt(f, a, fmt="%.17g", header=f"{a.shape[0]} {a.shape[1]}", comments="")


def read_matrix_text(path) -> np.ndarray:
    """Parse the matrix text format; raises OrthoSubselectError on any defect.

    The file is read once, so ``path`` may be a pipe.
    """
    data = Path(path).read_bytes()
    if not data.translate(None, _PLAIN_BYTES):
        a = _loadtxt_matrix(data)
        if a is not None:
            return a
    return _read_matrix_data(path, data)


# loadtxt reads \x0b, \x0c and \x1c-\x1e as field gaps where str.splitlines
# breaks lines; those bytes, tabs, CR, nan, inf and '_' take the row loop
_PLAIN_BYTES = b"0123456789.eE+- \n"


def _loadtxt_matrix(data: bytes) -> np.ndarray | None:
    """The matrix in plain ``data`` if numpy's C reader finds a valid one."""
    end = data.find(b"\n")
    if end < 0:
        return None
    try:
        n, m = (int(tok) for tok in data[:end].split())
        body = io.BytesIO(data)  # shares data's buffer: no 11 MB body slice
        body.seek(end + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on an empty body
            a = np.loadtxt(body, comments=None, ndmin=2)
    except ValueError:
        return None
    if n < 1 or a.shape != (n, m) or not np.isfinite(a).all():
        return None
    return a


def _read_matrix_data(path, data: bytes) -> np.ndarray:
    """The row-by-row reader, which names the first defect of ``data``."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise OrthoSubselectError(f"{path}: {exc}") from exc
    if "_" in text:  # int() and float() would read 2_0 as 20
        raise OrthoSubselectError(f"{path}: '_' is not allowed in numbers")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise OrthoSubselectError(f"{path}: empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise OrthoSubselectError(f"{path}: header must be 'n M'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise OrthoSubselectError(f"{path}: non-integer header") from exc
    if n < 1 or m < 1:
        raise OrthoSubselectError(f"{path}: dimensions must be positive")
    if len(lines) != n + 1:
        raise OrthoSubselectError(
            f"{path}: expected {n} data rows, found {len(lines) - 1}"
        )
    try:
        for r, line in enumerate(lines[1:], start=1):
            fields = line.split()
            if len(fields) != m:
                raise ValueError(f"row {r} has {len(fields)} values, expected {m}")
            if r == 1:  # row 1 has shown M, so a false header is never allocated
                a = np.empty((n, m))  # row by row: all tokens at once take ~10x
            a[r - 1] = fields  # numpy parses each string as float() does
        return as_matrix(a)
    except ValueError as exc:
        raise OrthoSubselectError(f"{path}: {exc}") from exc
