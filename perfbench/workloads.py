"""The benchmark's workloads as lists of `ortho-subselect` CLI invocations.

Every workload is a closed loop with one client: the benchmark runs each
invocation to completion, in order, from a single benchmark process. The
workload seed is an argument of the benchmark; the program only sees the CLI
flags derived from it.

- study_walsh: the criterion-3 scaling study, one process running 40
  selections. Stresses the retry loop, the eigensolver and the thread pool;
  reads no input file.
- pipeline_trig: set-up writes a 32 x 16384 trig matrix (an 11 MB text
  file). A pass runs several `select --trace` calls, each followed by a
  `certify` of its certificate. Every call re-parses the matrix file, builds
  Grams on wide subsets and emits long JSON; the eigensolves are only 32 x 32
  and the pool is unused, so it bypasses what study_walsh stresses.
- verify_all: every estimator and property suite, at a fixed seed. Hundreds of pooled
  eigensolves, 30,000 seed derivations and 100,000-triple batches; the only
  memory-heavy workload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

NAMES = ("study_walsh", "pipeline_trig", "verify_all")

EPSILON = 0.5
STUDY_N_LIST = (8, 16, 32, 64)
STUDY_M_FACTOR = 16
STUDY_TRIALS = 10
TRIG_N = 32
TRIG_M = 16384
# The study keeps the acceptance-criterion seed whatever the workload seed:
# its work varies with --seed by far more than any regression bound (the
# summed k^3 of its eigensolves spans 43.7M to 62.7M over seeds 1-6), so a
# seed-derived study would measure the seed, not the code.
STUDY_SEED = 0
# verify keeps seed 0 too: its Sudakov lines are 3-sigma z-tests on 10,000
# trials, so about one seed in two hundred fails them by design (at seed
# 904337711 sudakov_weighted_span_e1 reads 3.068 against 3.0). Its work does
# not depend on the seed, so a pinned seed loses nothing as a measurement.
VERIFY_SEED = 0
PIPELINE_SELECTS = 4
VERIFY_CHECKS = (
    "process_fixture_span_e1",
    "process_fixture_exact_mean",
    "process_walsh_n8_M128",
    "process_walsh_n16_M256",
    "process_walsh_n32_M512",
    "process_bound_ratio_stability",
    "sudakov_inf_span_e1",
    "sudakov_weighted_span_e1",
    "sudakov_zero_weights",
    "quasi_triangle_dim2",
    "quasi_sandwich_dim2",
    "quasi_triangle_dim8",
    "quasi_sandwich_dim8",
    "quasi_triangle_dim32",
    "quasi_sandwich_dim32",
    "quasi_ball_convexity",
)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``label`` names its stdout file, ``argv`` follows
    ``python -m ortho_subselect``."""

    label: str
    argv: tuple[str, ...]


def matrix_path(setup_dir: Path) -> Path:
    return setup_dir / "trig.txt"


def setup(workload: str, setup_dir: Path) -> list[Invocation]:
    """Calls that write the workload's input files."""
    if workload != "pipeline_trig":
        return []
    return [
        Invocation(
            "gen",
            ("gen", "--kind", "trig", "--n", str(TRIG_N), "--M", str(TRIG_M),
             "--output", str(matrix_path(setup_dir))),
        )
    ]


def select_seed(seed: int, k: int) -> int:
    """Program seed of the k-th select of the workload seeded ``seed``."""
    text = f"perfbench:{seed}:select:{k}"
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:4], "big")


def one_pass(workload: str, seed: int, setup_dir: Path, pass_dir: Path) -> list[Invocation]:
    """The invocations of one timed pass, in the order they run."""
    eps = repr(EPSILON)
    if workload == "study_walsh":
        return [
            Invocation(
                "study",
                ("study", "--kind", "walsh",
                 "--n-list", ",".join(map(str, STUDY_N_LIST)),
                 "--m-factor", str(STUDY_M_FACTOR), "--epsilon", eps,
                 "--trials", str(STUDY_TRIALS), "--seed", str(STUDY_SEED),
                 "--output", str(pass_dir / "study.csv")),
            )
        ]
    if workload == "pipeline_trig":
        matrix = str(matrix_path(setup_dir))
        calls = []
        for k in range(PIPELINE_SELECTS):
            cert = str(pass_dir / f"cert{k}.json")
            calls.append(Invocation(
                f"select{k}",
                ("select", "--input", matrix, "--epsilon", eps,
                 "--seed", str(select_seed(seed, k)), "--output", cert,
                 "--trace", str(pass_dir / f"trace{k}.json")),
            ))
            calls.append(Invocation(
                f"certify{k}",
                ("certify", "--input", matrix, "--subset", cert, "--epsilon", eps),
            ))
        return calls
    if workload == "verify_all":
        return [Invocation("verify", ("verify", "--suite", "all", "--seed", str(VERIFY_SEED)))]
    raise ValueError(f"unknown workload {workload!r}")


def stdout_path(run_dir: Path, inv: Invocation) -> Path:
    return run_dir / f"{inv.label}.out"
