"""Randomized halving selection with exact certification.

The core loop draws independent +-1 signs over the surviving columns, keeps
the +1 half, and accepts the draw only if (a) the child cardinality lands in
the window [p/2 * (1 - 1/sqrt(p)), p/2] and (b) the exactly computed global
deviation of the child stays within the budget. Acceptance on the *global*
deviation makes every certificate sound by construction: no step is ever
kept on the strength of a probabilistic estimate alone.

A subset is a tuple of strictly increasing 1-based column indices.
``certify``, the one public function that takes one, checks it once with
``_subset_columns``. ``select_subset`` checks its arguments once and runs the
unchecked ``_cascade`` on 0-based column arrays; ``_cascade`` is the one place
that decides a draw, and reads the matrix only through an extremes function.
``_certificate`` takes such arrays unchecked.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import OrthoSubselectError
from .linalg import OrthoRowMatrix, _gram_extremes
from .rng import child_seed, trial_rngs

DEFAULT_MAX_RETRIES = 64
# Floor coefficient for the analytic stop ceil(kappa * t^2/eps^2 * n * ln n);
# 0.25 is an unfitted constant (ROADMAP item 6 measures the accepted draws'
# kappa_eff). See select_subset.
DEFAULT_KAPPA = 0.25


@dataclass(frozen=True)
class HalvingStep:
    """One accepted halving: sizes, certified deviation, and the draw seed.

    retries_used counts the rejected draws before the accepted one, so 0
    means the first draw was accepted.
    """

    parent_size: int
    child_size: int
    deviation_after: float
    retries_used: int
    seed: int


@dataclass(frozen=True)
class SelectionTrace:
    steps: tuple[HalvingStep, ...]
    final_subset: tuple[int, ...]
    epsilon_target: float


@dataclass(frozen=True)
class IsometryCertificate:
    """Exact spectral certificate for one column subset.

    epsilon_achieved = max(lambda_max - 1, 1 - lambda_min) for the extreme
    eigenvalues of (M/|I|) A_I A_I^T; recomputable from (A, subset) alone.
    """

    n: int
    m: int
    subset: tuple[int, ...]
    lambda_min: float
    lambda_max: float
    epsilon_achieved: float
    coherence_t: float
    scale: float


def cardinality_window(parent_size: int) -> tuple[float, float]:
    """Admissible child-size interval for one halving of ``parent_size``."""
    half = parent_size / 2.0
    return half * (1.0 - 1.0 / math.sqrt(parent_size)), half


def _size_floor(n: int, t: float, epsilon: float, kappa: float) -> float:
    """Analytic stopping floor ceil(kappa * (t/epsilon)^2 * n * ln n): 0 if
    kappa = 0 or n = 1, +inf (no halving) if epsilon^2 is 0 or it overflows."""
    if kappa == 0.0 or n == 1:
        return 0
    try:
        return math.ceil(kappa * (t * t) / (epsilon * epsilon) * n * math.log(n))
    except (ZeroDivisionError, OverflowError):
        return math.inf


def _cascade(extremes, m: int, floor: float, epsilon: float, seed: int, max_retries: int,
             min_size: int) -> tuple[np.ndarray, tuple[HalvingStep, ...]]:
    """The final 0-based columns and the steps of the halvings of columns
    0..m-1 that select_subset describes, unchecked, with size floor ``floor``.

    ``extremes(cols)`` gives (lambda_min, lambda_max, deviation) of the
    nonempty 0-based columns ``cols``: all the cascade reads of the matrix.
    Retry r of step k draws from the generator seeded by
    child_seed(child_seed(seed, k), r), and a draw is kept only if its child
    size lies in the cardinality window and its deviation is at most ``epsilon``.
    """
    cols = np.arange(m)
    steps: list[HalvingStep] = []
    while len(cols) > min_size and len(cols) / 2.0 >= floor:
        p, step_seed = len(cols), child_seed(seed, len(steps))
        lo, hi = cardinality_window(p)
        for retry, rng in enumerate(trial_rngs(step_seed, max_retries)):
            keep = rng.integers(0, 2, size=p).astype(bool)  # sign +1 <=> keep
            size = int(keep.sum())
            if lo <= size <= hi and (dev := extremes(cols[keep])[2]) <= epsilon:
                break
        else:
            break
        cols = cols[keep]
        steps.append(HalvingStep(p, size, dev, retry, step_seed))
    return cols, tuple(steps)


def select_subset(
    a: OrthoRowMatrix,
    epsilon: float,
    seed: int,
    max_retries: int = DEFAULT_MAX_RETRIES,
    min_size: int = 1,
    kappa: float = DEFAULT_KAPPA,
) -> tuple[IsometryCertificate, SelectionTrace]:
    """Repeat accepted halvings until no further halving is worthwhile.

    Stops when (a) a step exhausts its retries (the empirical signal that
    the budget is no longer reachable at the next size), (b) the subset has
    reached ``min_size``, or (c) another halving would undershoot the
    analytic floor ``_size_floor``. Step k derives its seed as
    child_seed(seed, k). The returned certificate always satisfies
    epsilon_achieved <= epsilon because every accepted step re-verified the
    global deviation.
    """
    if not 0.0 < epsilon < 1.0:
        raise OrthoSubselectError(f"epsilon must be in (0, 1), got {epsilon}")
    if min_size < 1:
        raise OrthoSubselectError(f"min_size must be >= 1, got {min_size}")
    if max_retries < 1:
        raise OrthoSubselectError(f"max_retries must be >= 1, got {max_retries}")
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise OrthoSubselectError(f"kappa must be finite and >= 0, got {kappa}")
    floor = _size_floor(a.n, a.coherence, epsilon, kappa)
    cols, steps = _cascade(partial(_gram_extremes, a), a.m, floor, epsilon, seed,
                           max_retries, min_size)
    cert = _certificate(a, cols)
    return cert, SelectionTrace(steps, cert.subset, epsilon)


def certify(a: OrthoRowMatrix, subset) -> IsometryCertificate:
    """Exact certificate for ``subset``, any sequence of strictly increasing
    1-based column indices of ``a``: eigen extremes of (M/|I|) A_I A_I^T."""
    return _certificate(a, _subset_columns(subset, a.m))


def _subset_columns(subset, m: int) -> np.ndarray:
    """0-based intp columns of the nonempty, strictly increasing, 1-based
    integer sequence ``subset`` over a width-``m`` matrix."""
    idx = np.asarray(subset)
    if idx.ndim == 1 and idx.dtype.kind in "fO" and all(type(x) is int for x in subset):
        idx = np.asarray(subset, dtype=object)  # ints beyond int64: floats or objects
    elif idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise OrthoSubselectError(f"indices must be flat integers, got {idx.dtype}")
    elif idx is not subset and any(isinstance(x, (bool, np.bool_)) for x in subset):
        raise OrthoSubselectError("indices must be flat integers, got bool")  # True reads as 1
    bad = idx[1:] <= idx[:-1]
    if np.any(bad):
        j = int(np.argmax(bad))
        if idx[j] == idx[j + 1]:
            raise OrthoSubselectError(f"duplicate index {idx[j]}")
        raise OrthoSubselectError("indices must be strictly increasing")
    if not idx.size:
        raise OrthoSubselectError("subset must contain at least one column index")
    if idx[0] < 1 or idx[-1] > m:
        raise OrthoSubselectError(
            f"indices must lie in 1..{m}, got range [{idx[0]}, {idx[-1]}]"
        )
    return idx.astype(np.intp) - 1


def _certificate(a: OrthoRowMatrix, cols: np.ndarray) -> IsometryCertificate:
    """Certificate of the nonempty 0-based columns ``cols``, unchecked."""
    lambda_min, lambda_max, eps = _gram_extremes(a, cols)
    return IsometryCertificate(
        n=a.n,
        m=a.m,
        subset=tuple((cols + 1).tolist()),
        lambda_min=lambda_min,
        lambda_max=lambda_max,
        epsilon_achieved=eps,
        coherence_t=a.coherence,
        scale=a.m / len(cols),
    )


def certificate_to_dict(cert: IsometryCertificate) -> dict:
    """Certificate in its normative JSON field order."""
    return {
        "n": cert.n,
        "M": cert.m,
        "subset": list(cert.subset),
        "lambda_min": cert.lambda_min,
        "lambda_max": cert.lambda_max,
        "epsilon_achieved": cert.epsilon_achieved,
        "coherence_t": cert.coherence_t,
        "scale": cert.scale,
    }


def trace_to_dict(trace: SelectionTrace) -> dict:
    """Trace in its normative JSON field order."""
    return {
        "epsilon_target": trace.epsilon_target,
        "steps": [asdict(s) for s in trace.steps],  # fields in key order
        "final_subset": list(trace.final_subset),
    }
