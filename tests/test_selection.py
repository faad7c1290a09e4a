import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortho_subselect import (
    HalvingStep,
    OrthoRowMatrix,
    OrthoSubselectError,
    SelectionTrace,
    cardinality_window,
    certify,
    child_seed,
    estimate_process,
    gen_random_ortho,
    gen_trig,
    gen_walsh,
    select_subset,
)
from ortho_subselect import selection
from ortho_subselect.linalg import _gram_extremes
from ortho_subselect.rng import trial_rngs
from ortho_subselect.selection import _cascade, _size_floor


def flat_pair() -> OrthoRowMatrix:
    return OrthoRowMatrix(np.full((1, 2), 1 / math.sqrt(2)))


def skewed_pair() -> OrthoRowMatrix:
    return OrthoRowMatrix(np.array([[math.sqrt(0.8), math.sqrt(0.2)]]))


def _first_step(a, parent, budget, seed, max_retries):
    """The cascade's first step from the 0-based columns ``parent`` of ``a``,
    drawn from child_seed(seed, 0): the child columns and the step, or None
    when every draw is rejected. The size floor 0 and min_size p // 2 stop
    the cascade after that one step."""
    parent = np.asarray(parent)
    cols, steps = _cascade(lambda c: _gram_extremes(a, parent[c]), len(parent), 0.0,
                           budget, seed, max_retries, len(parent) // 2)
    return (parent[cols], steps[0]) if steps else None


def test_cascade_step_flat_pair():
    child, step = _first_step(flat_pair(), np.arange(2), 0.1, 0, 64)
    assert len(child) == 1
    assert step.deviation_after <= 1e-12
    assert step.parent_size == 2 and step.child_size == 1


def test_cascade_step_window_on_full_walsh():
    a = gen_walsh(4, 16)
    child, step = _first_step(a, np.arange(16), 1.0, 1, 64)
    lo, hi = cardinality_window(16)
    assert lo == 8 * (1 - 1 / 4) and hi == 8
    assert 6 <= len(child) <= 8
    assert step.retries_used >= 0


def test_cascade_step_zero_budget_exhausts():
    a = gen_random_ortho(2, 8, seed=3)
    assert _first_step(a, np.arange(8), 0.0, 0, 16) is None


def test_cascade_step_records_accepting_draw():
    a = gen_walsh(4, 16)
    child, step = _first_step(a, np.arange(16), 0.75, 5, 64)
    # replaying the recorded draw reproduces the child exactly
    rng = np.random.default_rng(child_seed(step.seed, step.retries_used))
    keep = rng.integers(0, 2, size=16).astype(bool)
    assert np.array_equal(np.arange(16)[keep], child)
    assert certify(a, child + 1).epsilon_achieved == step.deviation_after


def test_select_flat_pair_reaches_singleton():
    cert, trace = select_subset(flat_pair(), 0.99, seed=0)
    assert len(cert.subset) == 1
    assert cert.epsilon_achieved <= 1e-12
    assert trace.steps[-1].child_size == 1


def test_select_min_size_full_keeps_everything():
    a = gen_walsh(8, 64)
    cert, trace = select_subset(a, 0.5, seed=0, min_size=64)
    assert len(trace.steps) == 0
    assert cert.subset == tuple(range(1, 65))
    assert cert.epsilon_achieved <= 1e-10


# values that break each of select_subset's argument rules
BAD_SELECT_ARGUMENTS = [
    *({"epsilon": eps} for eps in (0.0, 1.0, -0.5, 1.5, math.nan, math.inf)),
    {"min_size": 0}, {"max_retries": 0}, {"max_retries": -3},
    *({"kappa": kappa} for kappa in (-1.0, math.inf, math.nan)),
]
SELECT_RULES = {"epsilon": "must be in (0, 1)", "min_size": "must be >= 1",
                "max_retries": "must be >= 1", "kappa": "must be finite and >= 0"}


@pytest.mark.parametrize("kwargs", BAD_SELECT_ARGUMENTS,
                         ids=lambda kw: "{}={}".format(*next(iter(kw.items()))))
def test_select_subset_rejects_bad_arguments_before_any_draw(monkeypatch, kwargs):
    # the cascade is unchecked: select_subset rejects its arguments before
    # the first draw
    draws = []

    def counted(*args):
        draws.append(args)
        return trial_rngs(*args)

    monkeypatch.setattr(selection, "trial_rngs", counted)
    (name, value), = kwargs.items()
    with pytest.raises(OrthoSubselectError) as err:
        select_subset(gen_walsh(4, 16), **{"epsilon": 0.5, "seed": 0, **kwargs})
    assert str(err.value) == f"{name} {SELECT_RULES[name]}, got {value}"
    assert draws == []


def test_select_certificates_are_sound_and_replayable():
    a = gen_walsh(16, 256)
    for seed in range(3):
        cert, trace = select_subset(a, 0.5, seed=seed)
        assert cert.epsilon_achieved <= 0.5
        again = certify(a, cert.subset)
        assert again.lambda_min == cert.lambda_min
        assert again.lambda_max == cert.lambda_max
        # bit-for-bit replay of the whole run
        cert2, trace2 = select_subset(a, 0.5, seed=seed)
        assert cert2 == cert
        assert trace2 == trace
        # every step satisfies its cardinality window
        for step in trace.steps:
            lo, hi = cardinality_window(step.parent_size)
            assert lo <= step.child_size <= hi
        sizes = [s.child_size for s in trace.steps]
        assert sizes == sorted(sizes, reverse=True)


def test_select_scale_identity():
    a = gen_walsh(8, 128)
    cert, _ = select_subset(a, 0.6, seed=2)
    assert cert.scale == a.m / len(cert.subset)
    assert cert.m == 128 and cert.n == 8


def test_select_closed_form_for_one_row():
    a = skewed_pair()
    cert, _ = select_subset(a, 0.7, seed=4)
    total = sum(a.mat[0, j - 1] ** 2 for j in cert.subset)
    assert abs(cert.epsilon_achieved - abs(cert.scale * total - 1.0)) <= 1e-12


def test_certify_skewed_singleton():
    cert = certify(skewed_pair(), (2,))
    assert abs(cert.lambda_max - 0.4) <= 1e-12
    assert abs(cert.epsilon_achieved - 0.6) <= 1e-12


def test_certify_dominates_sampled_quadratic_forms():
    # Monte-Carlo lower-bound oracle: the eigenvalue supremum must dominate
    # |scale * ||A_I^T x||^2 - 1| for every sampled unit x, up to roundoff.
    a = gen_walsh(8, 64)
    rng = np.random.default_rng(12)
    subset = np.sort(rng.choice(64, 24, replace=False)) + 1
    cert = certify(a, subset)
    x = rng.standard_normal((100_000, 8))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    cols = a.mat[:, subset - 1]
    vals = np.abs(cert.scale * np.sum((x @ cols) ** 2, axis=1) - 1.0)
    sampled = float(np.max(vals))
    assert sampled <= cert.epsilon_achieved + 1e-6


def test_select_and_certify_reduce_the_column_norms_once(monkeypatch):
    calls = []
    reduce_norms = OrthoRowMatrix.column_norms.func

    def counted(a):
        calls.append(a)
        return reduce_norms(a)

    monkeypatch.setattr(OrthoRowMatrix.column_norms, "func", counted)
    a = gen_random_ortho(4, 64, seed=6)
    cert, _ = select_subset(a, 0.5, seed=1)
    assert calls == [a]
    assert cert == certify(a, cert.subset)  # coherence_t included
    estimate_process(a, 2, seed=3)
    assert calls == [a]
    fresh = OrthoRowMatrix(a.mat)
    assert certify(fresh, cert.subset) == cert
    assert calls == [a, fresh]


def test_select_zero_kappa_is_legal():
    cert, _ = select_subset(gen_walsh(4, 16), 0.5, seed=0, kappa=0.0)
    assert cert.epsilon_achieved <= 0.5


# epsilon in (0, 1), with a second draw from the range where epsilon^2
# underflows to a subnormal or to 0
_EPSILONS = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                      st.floats(5e-324, 1e-150))


@settings(max_examples=400, deadline=None)
@given(n=st.sampled_from([1, 2, 64]), t=st.floats(1.0, 8.0), epsilon=_EPSILONS,
       kappa=st.one_of(st.sampled_from([0.0, 0.25, 1e308]), st.floats(0.0, 1e308)))
def test_size_floor_never_raises_and_keeps_every_finite_floor(n, t, epsilon, kappa):
    floor = _size_floor(n, t, epsilon, kappa)
    try:  # the expression as it stood, with no guard
        old = math.ceil(kappa * (t * t) / (epsilon * epsilon) * n * math.log(n))
    except (ZeroDivisionError, OverflowError, ValueError):
        old = None
    if old is not None:
        assert type(floor) is int and floor == old
    elif kappa == 0.0 or n == 1:
        assert floor == 0
    else:  # epsilon^2 underflowed to 0 or the product overflowed
        assert floor == math.inf


def _per_draw_halve_step(a, parent, epsilon_budget, seed, max_retries=64):
    """Reference oracle: the halving step as it was before its draws became
    index arrays, with a tuple of 1-based indices and a public certificate
    per draw. Returns None when every draw is rejected."""
    p = len(parent)
    lo, hi = cardinality_window(p)
    parent_arr = np.asarray(parent)
    for retry in range(max_retries):
        rng = np.random.default_rng(child_seed(seed, retry))
        keep = rng.integers(0, 2, size=p).astype(bool)
        size = int(keep.sum())
        if size < 1 or size < lo or size > hi:
            continue
        child = tuple(parent_arr[keep].tolist())
        dev = certify(a, child).epsilon_achieved
        if dev <= epsilon_budget:
            return child, HalvingStep(p, size, dev, retry, seed)
    return None


def _per_draw_cascade(a, epsilon, seed, max_retries, min_size, kappa):
    """Reference cascade: select_subset's stops around _per_draw_halve_step.
    Returns the certificate, the trace and the stop that ended it."""
    floor = _size_floor(a.n, a.coherence, epsilon, kappa)
    current, steps = tuple(range(1, a.m + 1)), []
    while True:
        if len(current) <= min_size:
            stop = "min_size"
            break
        if len(current) / 2 < floor:
            stop = "floor"
            break
        halved = _per_draw_halve_step(
            a, current, epsilon, child_seed(seed, len(steps)), max_retries
        )
        if halved is None:
            stop = "retries"
            break
        current, step = halved
        steps.append(step)
    return certify(a, current), SelectionTrace(tuple(steps), current, epsilon), stop


ORACLE_INSTANCES = {
    "walsh": lambda: gen_walsh(16, 256),
    "trig": lambda: gen_trig(16, 256),
    "random": lambda: gen_random_ortho(16, 256, seed=3),
}


@pytest.mark.parametrize("kind", sorted(ORACLE_INSTANCES))
@pytest.mark.parametrize("budget", [0.0, 0.3, 0.5, 0.9])
def test_cascade_matches_per_draw_oracle(kind, budget):
    a = ORACLE_INSTANCES[kind]()
    parents = [tuple(range(1, a.m + 1)), tuple(range(1, a.m + 1, 3))]
    for parent in parents:
        for seed in range(6):
            for max_retries in (4, 64):
                want = _per_draw_halve_step(a, parent, budget, child_seed(seed, 0),
                                            max_retries)
                got = _first_step(a, np.asarray(parent) - 1, budget, seed, max_retries)
                if want is None:
                    assert got is None
                    continue
                # dataclass ==, so deviation_after compares by float ==
                assert (tuple((got[0] + 1).tolist()), got[1]) == want
    if budget == 0.0:  # select_subset takes epsilon in (0, 1)
        return
    # whole cascades: (min_size, kappa) 1 and 0 stop only on exhausted
    # retries; a quarter of the columns or the default floor may stop first
    stops = set()
    for seed in range(6):
        for max_retries in (4, 64):
            for min_size, kappa in ((1, 0.0), (a.m // 4, 0.0), (1, 0.25)):
                cert, trace, stop = _per_draw_cascade(a, budget, seed, max_retries,
                                                      min_size, kappa)
                got = select_subset(a, budget, seed, max_retries, min_size, kappa)
                assert got == (cert, trace)
                stops.add(stop)
    if budget == 0.9:  # loose enough that every instance meets every stop
        assert stops == {"retries", "min_size", "floor"}


def test_selection_grams_match_row_major_layout(monkeypatch):
    # certify on the column-major A equals eigvalsh of the Gram gathered
    # from a row-major copy, bit for bit, and that Gram is exactly
    # symmetric, for every subset a selection or a study tries
    seen = []
    gram_extremes = selection._gram_extremes

    def recording(a, cols):
        seen.append((a, cols.copy()))
        return gram_extremes(a, cols)

    monkeypatch.setattr(selection, "_gram_extremes", recording)
    for a in (gen_walsh(16, 256), gen_trig(16, 256), gen_random_ortho(16, 256, 3)):
        for seed in range(5):
            select_subset(a, 0.5, seed)
    select_subset(gen_trig(32, 16384), 0.5, 1)
    for gen in (gen_walsh, gen_trig):  # the study's trials, seeded as study seeds them
        for n in (8, 16, 32):
            a = gen(n, 16 * n)
            for trial in range(3):
                select_subset(a, 0.5, child_seed(0, n, trial))
    monkeypatch.undo()
    assert len(seen) >= 250
    for a, cols in seen:
        x = np.ascontiguousarray(a.mat)[:, cols]
        g = x @ x.T
        assert np.array_equal(g, g.T)
        w = np.linalg.eigvalsh((a.m / len(cols)) * g)
        dev = max(float(w[-1]) - 1.0, 1.0 - float(w[0]))
        assert certify(a, cols + 1).epsilon_achieved == dev
