"""Command-line front end.

Subcommands: gen (write instance matrices), select (run the halving
selection), certify (recompute a certificate from scratch), study (scaling
sweeps to CSV), verify (estimator and property suites). Exit codes: 0
success/pass, 1 domain failure, 2 usage error. All randomness flows from
--seed through the documented stream-splitting rule, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import OrthoSubselectError
from .generators import gen_random_ortho, gen_trig, gen_walsh
from .jsonio import dumps, format_float
from .linalg import OrthoRowMatrix, read_matrix_text, write_matrix_text
from .processes import (
    ProcessEstimate,
    check_ball_convexity,
    check_quasi_triangle,
    check_sandwich,
    estimate_process,
    gaussian_sup_estimates,
)
from .rng import child_seed
from .selection import (
    DEFAULT_KAPPA,
    DEFAULT_MAX_RETRIES,
    certificate_to_dict,
    certify,
    select_subset,
    trace_to_dict,
)

CSV_HEADER = "n,M,trial,final_size,epsilon_achieved,steps,total_retries,ratio"

HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)
HALF_NORMAL_STD = math.sqrt(1.0 - 2.0 / math.pi)

# Family-wise false-alarm rate of the statistical lines of a --suite all run,
# the two two-sided Sudakov z-tests; Bonferroni gives each test VERIFY_ALPHA / 2.
VERIFY_ALPHA = 1e-6
# statistics.NormalDist().inv_cdf(1 - VERIFY_ALPHA / 4), the two-sided z for
# VERIFY_ALPHA / 2, written out so the CLI does not import statistics
SUDAKOV_THRESHOLD = 5.026312836029865


@dataclass(frozen=True)
class StudyConfig:
    kind: str
    n_list: tuple[int, ...]
    m_factor: int
    epsilon: float
    trials: int
    seed: int
    kappa: float = DEFAULT_KAPPA

    def __post_init__(self):
        if not self.n_list or list(self.n_list) != sorted(set(self.n_list)):
            raise OrthoSubselectError("n_list must be nonempty and strictly ascending")
        if min(self.n_list) < 2:
            raise OrthoSubselectError("study requires n >= 2 (ratio divides by n ln n)")
        if self.m_factor < 1:
            raise OrthoSubselectError("m_factor must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise OrthoSubselectError("epsilon must be in (0, 1)")
        if self.trials < 1:
            raise OrthoSubselectError("trials must be >= 1")


@dataclass(frozen=True)
class StudyRow:
    n: int
    m: int
    trial: int
    final_size: int
    epsilon_achieved: float
    steps: int
    total_retries: int
    ratio: float  # final_size / (n ln n)


def _generate(kind: str, n: int, m: int, seed: int) -> OrthoRowMatrix:
    if kind == "walsh":
        return gen_walsh(n, m)
    if kind == "trig":
        return gen_trig(n, m)
    if kind == "random":
        return gen_random_ortho(n, m, seed)
    raise OrthoSubselectError(f"unknown generator kind {kind!r}")


def run_study(cfg: StudyConfig) -> list[StudyRow]:
    """One selection run per (n, trial), in (n, trial) order."""
    rows = []
    for n in cfg.n_list:
        a = _generate(cfg.kind, n, cfg.m_factor * n, child_seed(cfg.seed, "matrix", n))
        for trial in range(cfg.trials):
            cert, trace = select_subset(
                a, cfg.epsilon, child_seed(cfg.seed, n, trial), kappa=cfg.kappa
            )
            size = len(cert.subset)
            rows.append(StudyRow(
                n=n,
                m=a.m,
                trial=trial,
                final_size=size,
                epsilon_achieved=cert.epsilon_achieved,
                steps=len(trace.steps),
                total_retries=sum(s.retries_used for s in trace.steps),
                ratio=size / (n * math.log(n)),
            ))
    return rows


def _median(values) -> float:
    """The middle value, or the mean ``(lo + hi) / 2`` of the two middle
    values: what np.median computes, without np.median's import of numpy.ma."""
    s = sorted(values)
    k = len(s) // 2
    return float(s[k]) if len(s) % 2 else (s[k - 1] + s[k]) / 2


def study_summary(cfg: StudyConfig, rows: list[StudyRow]) -> dict:
    per_n = []
    for n in cfg.n_list:
        ratios = [r.ratio for r in rows if r.n == n]
        finals = [r.final_size for r in rows if r.n == n]
        per_n.append(
            {
                "n": n,
                "M": cfg.m_factor * n,
                "median_ratio": _median(ratios),
                "median_final_size": _median(finals),
            }
        )
    medians = [e["median_ratio"] for e in per_n]
    return {
        "kind": cfg.kind,
        "epsilon": cfg.epsilon,
        "kappa": cfg.kappa,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "per_n": per_n,
        "median_ratio_min": min(medians),
        "median_ratio_max": max(medians),
        "median_ratio_spread": max(medians) / min(medians),
    }


def study_rows_to_csv(rows: list[StudyRow]) -> str:
    """CSV_HEADER plus one line per row; StudyRow's fields are the columns."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(
            format_float(v) if isinstance(v, float) else str(v) for v in astuple(r)
        ))
    return "\n".join(lines) + "\n"


def parse_subset_spec(spec: str) -> list[int]:
    """Sorted, unchecked subset from a certificate/trace JSON path or an
    inline index list; ``certify`` checks it against the matrix."""
    # os.path.exists, unlike Path.exists, is False for "" (not ".") and for
    # a name too long to be a file, such as a long inline list
    if os.path.exists(spec):
        try:
            data = json.loads(Path(spec).read_text(encoding="ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise OrthoSubselectError(f"{spec}: {exc}") from exc
        if isinstance(data, dict) and "subset" in data:
            arr = data["subset"]
        elif isinstance(data, dict) and "final_subset" in data:
            arr = data["final_subset"]
        elif isinstance(data, list):
            arr = data
        else:
            raise OrthoSubselectError(f"{spec}: no subset found in JSON")
        # json gives bools and floats too; numpy would read True as 1
        if not isinstance(arr, list) or any(type(x) is not int for x in arr):
            raise OrthoSubselectError(f"{spec}: subset must be a list of integers")
    else:
        try:
            arr = _int_list(spec)
        except argparse.ArgumentTypeError as exc:
            raise OrthoSubselectError(f"cannot parse subset {spec!r}") from exc
        if not arr:
            raise OrthoSubselectError("empty subset specification")
    return sorted(arr)


def cmd_gen(args) -> int:
    a = _generate(args.kind, args.n, args.M, args.seed)
    write_matrix_text(args.output, a.mat)
    norms = a.column_norms
    # lowest column within rounding of the maximum, so exact ties pick the first
    jmax = int(np.argmax(norms >= np.max(norms) * (1.0 - 1e-12)))
    print(
        dumps(
            {
                "kind": args.kind,
                "n": args.n,
                "M": args.M,
                "t": a.coherence,
                "argmax_column": jmax + 1,
                "per_column_norms": norms.tolist(),
            }
        )
    )
    return 0


def cmd_select(args) -> int:
    a = OrthoRowMatrix(read_matrix_text(args.input))
    cert, trace = select_subset(
        a,
        args.epsilon,
        args.seed,
        max_retries=args.max_retries,
        min_size=args.min_size,
        kappa=args.kappa,
    )
    Path(args.output).write_text(
        dumps(certificate_to_dict(cert)) + "\n", encoding="ascii"
    )
    if args.trace:
        Path(args.trace).write_text(
            dumps(trace_to_dict(trace)) + "\n", encoding="ascii"
        )
    print(f"|I|={len(cert.subset)} eps={format_float(cert.epsilon_achieved)}")
    return 0 if cert.epsilon_achieved <= args.epsilon else 1


def cmd_certify(args) -> int:
    if not (math.isfinite(args.epsilon) and args.epsilon >= 0.0):
        raise OrthoSubselectError(f"epsilon must be finite and >= 0, got {args.epsilon}")
    a = OrthoRowMatrix(read_matrix_text(args.input))
    cert = certify(a, parse_subset_spec(args.subset))
    print(dumps(certificate_to_dict(cert)))
    return 0 if cert.epsilon_achieved <= args.epsilon else 1


def cmd_study(args) -> int:
    cfg = StudyConfig(
        kind=args.kind,
        n_list=tuple(args.n_list),
        m_factor=args.m_factor,
        epsilon=args.epsilon,
        trials=args.trials,
        seed=args.seed,
        kappa=args.kappa,
    )
    rows = run_study(cfg)
    Path(args.output).write_text(study_rows_to_csv(rows), encoding="ascii")
    print(dumps(study_summary(cfg, rows)))
    if any(r.epsilon_achieved > cfg.epsilon for r in rows):
        print("error: a trial certificate exceeded epsilon", file=sys.stderr)
        return 1
    return 0


def _property_line(check: str, samples: int, max_ratio: float, threshold: float) -> dict:
    """A property line passes iff ``max_ratio <= threshold``."""
    return {
        "check": check,
        "samples": samples,
        "max_ratio": max_ratio,
        "threshold": threshold,
        "pass": max_ratio <= threshold,
    }


def _estimator_line(check: str, est: ProcessEstimate) -> dict:
    return {
        "check": check,
        "mean": est.mean,
        "std_error": est.std_error,
        "trials": est.trials,
        "Q": est.q,
        "bound_ratio": est.bound_ratio,
        "seed": est.seed,
    }


def _verify_process(trials: int, seed: int) -> list[dict]:
    out = []
    fixture = OrthoRowMatrix(np.eye(1, 64))
    est = estimate_process(fixture, max(2, min(trials, 64)), child_seed(seed, "fixture"))
    out.append(_estimator_line("process_fixture_span_e1", est))
    out.append(
        _property_line("process_fixture_exact_mean", est.trials, abs(est.mean - 1.0), 0.0)
    )
    ratios = []
    for n, m in ((8, 128), (16, 256), (32, 512)):
        est = estimate_process(gen_walsh(n, m), trials, child_seed(seed, "grid", n, m))
        ratios.append(est.bound_ratio)
        out.append(_estimator_line(f"process_walsh_n{n}_M{m}", est))
    spread = max(ratios) / min(ratios)
    out.append(_property_line("process_bound_ratio_stability", trials, spread, 2.0))
    return out


def _verify_sudakov(trials: int, seed: int) -> list[dict]:
    out = []
    m = 64
    fixture = OrthoRowMatrix(np.eye(1, m))
    se = HALF_NORMAL_STD / math.sqrt(trials)

    # with zero weights, this pass's weighted mean is the zero-weights line
    mean_inf, mean_zero = gaussian_sup_estimates(
        fixture, [0.0] * m, trials, child_seed(seed, "inf")
    )
    gap = abs(mean_inf - HALF_NORMAL_MEAN) / se
    out.append(_property_line("sudakov_inf_span_e1", trials, gap, SUDAKOV_THRESHOLD))

    weights = [0.0] * m
    weights[0] = 1.0
    _, mean_w = gaussian_sup_estimates(
        fixture, weights, trials, child_seed(seed, "weighted")
    )
    gap_w = abs(mean_w - HALF_NORMAL_MEAN) / se
    out.append(
        _property_line("sudakov_weighted_span_e1", trials, gap_w, SUDAKOV_THRESHOLD)
    )
    out.append(_property_line("sudakov_zero_weights", trials, mean_zero, 0.0))
    return out


def _verify_quasimetric(trials: int, seed: int) -> list[dict]:
    out = []
    for dim in (2, 8, 32):
        ratio = check_quasi_triangle(trials, dim, child_seed(seed, "triangle", dim))
        out.append(_property_line(f"quasi_triangle_dim{dim}", trials, ratio, 4.0))
        pairs = max(1, trials // 10)
        worst = check_sandwich(pairs, dim, child_seed(seed, "sandwich", dim))
        out.append(_property_line(f"quasi_sandwich_dim{dim}", pairs, worst, 1.0))
    combos = max(1, trials // 10)
    ratio = check_ball_convexity(combos, 6, child_seed(seed, "convexity"))
    out.append(_property_line("quasi_ball_convexity", combos, ratio, 4.0))
    return out


def cmd_verify(args) -> int:
    suites = {
        "process": (_verify_process, 200),
        "sudakov": (_verify_sudakov, 10000),
        "quasimetric": (_verify_quasimetric, 100000),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    all_pass = True
    for name in names:
        fn, default_trials = suites[name]
        trials = args.trials if args.trials is not None else default_trials
        for line in fn(trials, child_seed(args.seed, name)):
            print(dumps(line))
            if line.get("pass") is False:
                all_pass = False
    return 0 if all_pass else 1


def _ascii(text: str) -> str:
    """``text`` if it is ASCII without '_'. int() and float() also read
    other scripts' digits and the digit group 1_0, and str.split() breaks at
    non-ASCII spaces; the file formats allow none of these."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)  # argparse reports a ValueError as a usage error
    return text


def _int(text: str) -> int:
    return int(_ascii(text))


def _float(text: str) -> float:
    return float(_ascii(text))


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


# argparse names the type in its message: "invalid int value: '1_0'"
_int.__name__ = _positive_int.__name__ = "int"
_float.__name__ = "float"


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in _ascii(text).replace(",", " ").split()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ortho-subselect",
        description="Column-subset selection for orthonormal-row matrices "
        "with exact isometry certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance matrix")
    p.add_argument("--kind", required=True, choices=("walsh", "trig", "random"))
    p.add_argument("--n", required=True, type=_int)
    p.add_argument("--M", required=True, type=_int)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("select", help="run the halving selection")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", required=True, type=_float)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--max-retries", type=_int, default=DEFAULT_MAX_RETRIES)
    p.add_argument("--min-size", type=_int, default=1)
    p.add_argument("--kappa", type=_float, default=DEFAULT_KAPPA)
    p.add_argument("--output", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("certify", help="recompute a certificate from scratch")
    p.add_argument("--input", required=True)
    p.add_argument("--subset", required=True,
                   help="certificate/trace JSON path or index list '3,7,11'")
    p.add_argument("--epsilon", required=True, type=_float)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("study", help="scaling sweep over n, CSV output")
    p.add_argument("--kind", required=True, choices=("walsh", "trig", "random"))
    p.add_argument("--n-list", required=True, type=_int_list)
    p.add_argument("--m-factor", required=True, type=_int,
                   help="integer f in the size rule M = f*n")
    p.add_argument("--epsilon", required=True, type=_float)
    p.add_argument("--trials", type=_int, default=10)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--kappa", type=_float, default=DEFAULT_KAPPA)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("verify", help="estimator and property suites")
    p.add_argument("--suite", required=True,
                   choices=("process", "sudakov", "quasimetric", "all"))
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--seed", type=_int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def _parse_args(argv) -> argparse.Namespace:
    # the parser goes out of scope here, so main does not hold it while the
    # command runs
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.suite in ("process", "all") and args.trials == 1:
        # the process suite's standard errors need two trials
        parser.error("argument --trials: the process suite needs at least 2")
    if args.command == "select":
        # select writes --output and then --trace, so a shared path would
        # lose the input matrix or the certificate
        seen = {}
        for flag in ("--input", "--output", "--trace"):
            path = getattr(args, flag[2:])
            if path is not None:
                first = seen.setdefault(os.path.realpath(path), flag)
                if first != flag:
                    parser.error(f"argument {flag}: same file as {first}")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # OrthoSubselectError is a ValueError; so are numpy's own rejections.
        # A shape too large to allocate raises numpy's MemoryError.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Console entry point: ``main()``, then exit without interpreter teardown.

    Tearing down an interpreter that has loaded numpy takes about 0.04 s
    after the output is written. Once stdout and stderr are flushed nothing
    is left to save, so the process ends with ``os._exit``. A flush that
    fails (a closed pipe) and an exception that escapes ``main`` take the
    normal exit, which reports them as before.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
