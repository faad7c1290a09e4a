"""Domain exceptions. All inherit from :class:`OrthoSubselectError` (a
ValueError), so callers can catch either the package root or stdlib type."""


class OrthoSubselectError(ValueError):
    """Base class for the package's data and domain errors."""


class RankDeficient(OrthoSubselectError):
    """Row orthonormalization hit a (numerically) dependent row."""


class NotOrthonormal(OrthoSubselectError):
    """Matrix rows fail the orthonormality tolerance."""


class EmptySubset(OrthoSubselectError):
    """Operation requires at least one selected column."""


class IndexOutOfRange(OrthoSubselectError):
    """Subset index non-integer, unordered or outside 1..M, or width mismatch."""


class NotPowerOfTwo(OrthoSubselectError):
    """Flat sign-matrix generator requires M = 2^k."""


class RetriesExhausted(OrthoSubselectError):
    """No halving draw satisfied the size window and deviation budget."""


class InvalidEpsilon(OrthoSubselectError):
    """Deviation budget outside its admissible range."""


class SizeOutOfRange(OrthoSubselectError):
    """Requested subset cardinality outside 1..M."""


class BadSignVector(OrthoSubselectError):
    """Sign vector is not +-1 valued of the right length."""


class BadWeights(OrthoSubselectError):
    """Weight vector missing, wrong length, or non-finite."""


class SamplingFailed(OrthoSubselectError):
    """Rejection sampler could not populate the requested region."""


class MatrixFormatError(OrthoSubselectError):
    """Matrix text file is malformed."""
