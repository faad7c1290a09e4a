"""Randomized halving selection with exact certification.

The core loop draws independent +-1 signs over the surviving columns, keeps
the +1 half, and accepts the draw only if (a) the child cardinality lands in
the window [p/2 * (1 - 1/sqrt(p)), p/2] and (b) the exactly computed global
deviation of the child stays within the budget. Acceptance on the *global*
deviation makes every certificate sound by construction: no step is ever
kept on the strength of a probabilistic estimate alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import OrthoSubselectError, RetriesExhausted
from .generators import coherence
from .linalg import OrthoRowMatrix, SubsetIndex, _check_subset, _gram_extremes
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
    final_subset: SubsetIndex
    epsilon_target: float


@dataclass(frozen=True)
class IsometryCertificate:
    """Exact spectral certificate for one column subset.

    epsilon_achieved = max(lambda_max - 1, 1 - lambda_min) for the extreme
    eigenvalues of (M/|I|) A_I A_I^T; recomputable from (A, subset) alone.
    """

    n: int
    m: int
    subset: SubsetIndex
    lambda_min: float
    lambda_max: float
    epsilon_achieved: float
    coherence_t: float
    scale: float


def cardinality_window(parent_size: int) -> tuple[float, float]:
    """Admissible child-size interval for one halving of ``parent_size``."""
    half = parent_size / 2.0
    return half * (1.0 - 1.0 / math.sqrt(parent_size)), half


def halve_step(
    a: OrthoRowMatrix,
    parent: SubsetIndex,
    epsilon_budget: float,
    seed: int,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> tuple[SubsetIndex, HalvingStep]:
    """Draw sign splits of ``parent`` until one is accepted.

    Retry r uses the generator seeded by child_seed(seed, r). Draws whose
    child is empty, full, or outside the cardinality window count as
    retries, as do draws whose certified deviation exceeds the budget.
    Raises RetriesExhausted when no draw within ``max_retries`` passes both
    tests.
    """
    p = len(parent)
    if p < 2:
        raise OrthoSubselectError(f"cannot halve a subset of size {p}")
    if not (math.isfinite(epsilon_budget) and epsilon_budget >= 0.0):
        raise OrthoSubselectError(f"budget must be finite and >= 0, got {epsilon_budget}")
    if max_retries < 1:
        raise OrthoSubselectError(f"max_retries must be >= 1, got {max_retries}")
    _check_subset(a, parent)
    lo, hi = cardinality_window(p)
    cols = parent.zero_based()
    for retry, rng in enumerate(trial_rngs(seed, max_retries)):
        keep = rng.integers(0, 2, size=p).astype(bool)  # sign +1 <=> keep
        size = int(keep.sum())
        if size < lo or size > hi:
            continue
        child = cols[keep]
        dev = _gram_extremes(a, child)[2]
        if dev <= epsilon_budget:
            return SubsetIndex(child + 1, a.m), HalvingStep(p, size, dev, retry, seed)
    raise RetriesExhausted(
        f"no accepted halving of a size-{p} subset in {max_retries} draws "
        f"(budget {epsilon_budget})"
    )


def _size_floor(n: int, t: float, epsilon: float, kappa: float) -> int:
    """Analytic stopping floor ceil(kappa * (t/epsilon)^2 * n * ln n)."""
    return math.ceil(kappa * (t * t) / (epsilon * epsilon) * n * math.log(n))


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
    t = coherence(a).t
    floor = _size_floor(a.n, t, epsilon, kappa)
    current = SubsetIndex.full(a.m)
    steps: list[HalvingStep] = []
    while len(current) > min_size and len(current) / 2.0 >= floor:
        try:
            current, step = halve_step(
                a, current, epsilon, child_seed(seed, len(steps)), max_retries
            )
        except RetriesExhausted:
            break
        steps.append(step)
    cert = _certificate(a, current, t)
    trace = SelectionTrace(tuple(steps), current, epsilon)
    return cert, trace


def certify(a: OrthoRowMatrix, i: SubsetIndex) -> IsometryCertificate:
    """Exact certificate for ``i``: eigen extremes of (M/|I|) A_I A_I^T."""
    _check_subset(a, i)
    return _certificate(a, i, coherence(a).t)


def _certificate(a: OrthoRowMatrix, i: SubsetIndex, t: float) -> IsometryCertificate:
    """certify(a, i) without its check, given the coherence t of ``a``."""
    lambda_min, lambda_max, eps = _gram_extremes(a, i.zero_based())
    return IsometryCertificate(
        n=a.n,
        m=a.m,
        subset=i,
        lambda_min=lambda_min,
        lambda_max=lambda_max,
        epsilon_achieved=eps,
        coherence_t=t,
        scale=a.m / len(i),
    )


def uniform_baseline(
    a: OrthoRowMatrix, size: int, seed: int, trials: int
) -> list[IsometryCertificate]:
    """Certify ``trials`` uniformly random subsets of the given cardinality.

    Trial k draws from the generator seeded by child_seed(seed, k);
    certificates are returned in trial order.
    """
    if not 1 <= size <= a.m:
        raise OrthoSubselectError(f"size must be in 1..{a.m}, got {size}")
    if trials < 1:
        raise OrthoSubselectError(f"trials must be >= 1, got {trials}")

    t = coherence(a).t

    def one_trial(rng: np.random.Generator) -> IsometryCertificate:
        cols = np.sort(rng.choice(a.m, size=size, replace=False)) + 1
        return _certificate(a, SubsetIndex(cols, a.m), t)

    return [one_trial(rng) for rng in trial_rngs(seed, trials)]


def certificate_to_dict(cert: IsometryCertificate) -> dict:
    """Certificate in its normative JSON field order."""
    return {
        "n": cert.n,
        "M": cert.m,
        "subset": list(cert.subset.indices),
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
        "final_subset": list(trace.final_subset.indices),
    }
