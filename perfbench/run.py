"""Benchmark of the ortho-subselect CLI, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload study_walsh --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it sets the workload up several times, then runs timed
passes of CLI subprocesses (exactly as users run them, with
ORTHO_SUBSELECT_THREADS unset) until ``--seconds`` have elapsed, and reports
the end-to-end metrics. With ``--trace 1`` it runs ``tracer.py`` in a fresh
interpreter and reports the per-layer metrics. Either way every output is
checked by ``oracle.py``. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, machine facts included, goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREADS_ENV = "ORTHO_SUBSELECT_THREADS"
SETUP_REPEATS = 5
# Every run must end within 180 s; a child still running this long is killed
# and counted as failed.
TIME_LIMIT_S = 170.0
STARTED = time.perf_counter()


@dataclass
class Sample:
    label: str
    rc: int | None
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict:
    """The caller's environment with the checkout's sources first on the path
    and the worker count left to auto, as users get it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop(THREADS_ENV, None)
    return env


def run_process(label: str, argv: list[str], stdout: Path, env: dict) -> Sample:
    """Run one child to completion; its own rusage comes from os.wait4.

    RUSAGE_CHILDREN's ru_maxrss is a running maximum over every child ever
    reaped, so it cannot give one pass's peak; wait4 gives each child's.
    """
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, TIME_LIMIT_S - (start - STARTED)), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(label, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0)


def run_cli(inv, run_dir: Path, env: dict) -> Sample:
    return run_process(inv.label, [sys.executable, "-m", "ortho_subselect", *inv.argv],
                       wl.stdout_path(run_dir, inv), env)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def machine_record(env: dict) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k] for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):  # numpy < 1.26 prints instead
        buf = io.StringIO()
        with redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "children_saw": {k: env.get(k, "unset") for k in (THREADS_ENV, "OPENBLAS_NUM_THREADS")},
    }


def tail(values: list[float]) -> dict:
    """Median plus the highest percentile with at least 10 samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 11:
        ordered = sorted(values)
        at = len(ordered) - 11
        out[f"p{100 * (at + 1) // len(ordered)}"] = ordered[at]
    return out


class Ledger:
    """Operations attempted and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, where: str, problems: dict) -> None:
        for label, found in problems.items():
            self.attempted += 1
            if found:
                self.failures.append(f"{where}/{label}: {'; '.join(found)}")


def check_identical(workload: str, files_of, run_dir: Path, reference: dict | None) -> tuple[dict, dict]:
    """Digest each invocation's normative outputs and compare them with the
    first pass; a pass of the same code must reproduce them byte for byte."""
    digests = {label: oracle.digest(paths) for label, paths in files_of(workload, run_dir).items()}
    problems = {label: [] for label in digests}
    if reference is not None:
        for label, d in digests.items():
            if reference.get(label) != d:
                problems[label].append("output bytes differ from the first pass")
    return digests, problems


def merge(*problem_dicts: dict) -> dict:
    merged: dict = {}
    for problems in problem_dicts:
        for label, found in problems.items():
            merged.setdefault(label, []).extend(found)
    return merged


def run_e2e(args, ledger: Ledger, env: dict) -> tuple[dict, dict]:
    work = fresh_dir(OUT / args.workload)
    setup_dir, pass_dir = work / "setup", work / "pass"
    setup_s, setup_ref, matrix = [], None, None
    for _ in range(SETUP_REPEATS):
        fresh_dir(setup_dir)
        samples = [run_process("import", [sys.executable, "-c", "import ortho_subselect.cli"],
                               setup_dir / "import.out", env)]
        samples += [run_cli(inv, setup_dir, env) for inv in wl.setup(args.workload, setup_dir)]
        setup_s.append(sum(s.wall_s for s in samples))
        rcs = {s.label: s.rc for s in samples}
        digests, same = check_identical(args.workload, oracle.setup_outputs, setup_dir, setup_ref)
        setup_ref = setup_ref or digests
        found, matrix = oracle.check_setup(args.workload, setup_dir, rcs)
        ledger.record("setup", merge(found, same))

    passes, ref, invocation_walls = [], None, {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        fresh_dir(pass_dir)
        samples = [run_cli(inv, pass_dir, env)
                   for inv in wl.one_pass(args.workload, args.seed, setup_dir, pass_dir)]
        found, sizes = oracle.check_pass(args.workload, pass_dir,
                                         {s.label: s.rc for s in samples}, matrix)
        digests, same = check_identical(args.workload, oracle.outputs, pass_dir, ref)
        ref = ref or digests
        ledger.record(f"pass{len(passes)}", merge(found, same))
        for s in samples:
            invocation_walls.setdefault(s.label.rstrip("0123456789"), []).append(s.wall_s)
        passes.append({
            "wall_s": sum(s.wall_s for s in samples),
            "cpu_s": sum(s.cpu_s for s in samples),
            "peak_rss_mb": max(s.rss_mb for s in samples),
            "final_size_median": statistics.median(sizes) if sizes else None,
        })
        now = time.perf_counter()
        if now - start >= args.seconds or (now - STARTED) + (now - t0) > TIME_LIMIT_S - 10:
            break
    metrics = {key: statistics.median(p[key] for p in passes)
               for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup_s)
    detail = {
        "passes": passes,
        "setup_s_samples": setup_s,
        "wall_s": tail([p["wall_s"] for p in passes]),
        "invocation_wall_s": {k: tail(v) for k, v in invocation_walls.items()},
        "final_size_median": passes[0]["final_size_median"],
        "output_sha256": oracle.digest([p for paths in oracle.outputs(args.workload, pass_dir).values()
                                        for p in paths]),
    }
    return metrics, detail


def run_traced(args, ledger: Ledger, env: dict) -> tuple[dict, dict]:
    work = fresh_dir(OUT / args.workload)
    sample = run_process("tracer", [sys.executable, str(HERE / "tracer.py"),
                                    "--workload", args.workload, "--seed", str(args.seed),
                                    "--work", str(work)], work / "tracer.out", env)
    ledger.record("tracer", {"run": [] if sample.rc == 0 else [f"exit code {sample.rc}"]})
    if sample.rc != 0:
        return {}, {"tracer_stderr": (work / "tracer.err").read_text(errors="replace")[-2000:]}
    record = json.loads((work / "trace.json").read_text(encoding="ascii"))
    ref = None
    for name in tracer.PASSES:
        run_dir = work / name
        rcs = record["passes"][name]["rcs"]
        setup_labels = {inv.label for inv in wl.setup(args.workload, run_dir)}
        found, matrix = oracle.check_setup(
            args.workload, run_dir, {k: v for k, v in rcs.items() if k in setup_labels})
        found_pass, _ = oracle.check_pass(args.workload, run_dir,
                                          {k: v for k, v in rcs.items() if k not in setup_labels},
                                          matrix)
        digests, same = check_identical(
            args.workload, lambda w, d: {**oracle.setup_outputs(w, d), **oracle.outputs(w, d)},
            run_dir, ref)
        ref = ref or digests
        ledger.record(name, merge(found, found_pass, same))
    mismatched = record["counts_mismatched"]
    ledger.record("trace", {"counts_repeat": [f"counts differ across traced passes: {mismatched}"]
                            if mismatched else []})
    metrics = {**record["counts"], **record["timings"]}
    detail = {"absent": record["absent"], "counts_mismatched": mismatched,
              "pass_wall_s": {k: v["wall_s"] for k, v in record["passes"].items()}}
    return metrics, detail


def report(args, declared: list[dict], metrics: dict, detail: dict, absent: list[str]) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for m in declared:
        value = metrics.get(m["name"])
        shown = "absent" if m["name"] in absent else f"{value:.6g} {m['unit']}"
        print(f"  {m['name']:<44} {shown}")
    if args.trace:
        wall = metrics.get("trace.wall_s") or 0.0
        thread_s = metrics.get("trace.self_sum_s") or 0.0
        print(f"  traced wall {wall:.3f} s, self time summed over threads {thread_s:.3f} s")
        top = sorted(((v, k) for k, v in metrics.items() if k.endswith(".self_s")), reverse=True)
        for v, k in top[:6]:
            if wall > 0 and thread_s > 0:
                print(f"    {k:<42} {v:8.3f} s  {v / wall:6.1%} of wall  "
                      f"{v / thread_s:6.1%} of thread time")
    else:
        for label, t in detail["invocation_wall_s"].items():
            print(f"  {label} wall per call: {t}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "ortho_subselect" / "cli.py").is_file():
        print(f"error: no ortho_subselect sources under {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    env = child_env()
    ledger = Ledger()
    run = run_traced if args.trace else run_e2e
    metrics, detail = run(args, ledger, env)

    absent = [m["name"] for m in declared if metrics.get(m["name"]) is None]
    line = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        # absent per-layer metrics (hook target gone, or nothing to measure on
        # this workload) read 0 here and are named in the results file
        "metrics": {m["name"]: {"value": metrics.get(m["name"]) or 0, "unit": m["unit"]}
                    for m in declared},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "error_rate": len(ledger.failures) / max(1, ledger.attempted),
        "failures": ledger.failures,
        "absent": absent,
        "machine": machine_record(env),
        "metrics": metrics,
        "detail": detail,
        "result": line,
    }, indent=1, default=str), encoding="utf-8")
    report(args, declared, metrics, detail, absent)
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
