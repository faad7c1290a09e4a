"""Traced run: spans around the public functions of every package layer.

The tracer wraps each hooked function at every module binding that holds it
(``linalg.sym_eig_extremes`` and ``processes.sym_eig_extremes`` alike), then
the workload calls ``ortho_subselect.cli.main(argv)`` in-process. A span
records its name, start, end, parent span and thread; pool tasks get the
``parallel.run_indexed`` span that scheduled them as parent. Spans stay in
memory and are written out when the run ends. A hook whose target no longer
exists is reported as absent rather than failing, so the benchmark survives
refactors that delete or rename a layer function.

Run from the repository root with ``src`` on PYTHONPATH:

    python3 perfbench/tracer.py --workload study_walsh --seed 0 --work DIR

It makes four passes in one fresh interpreter (traced, untraced, traced
again, then untraced with one worker thread), writes each pass's outputs under DIR and
the measurements to DIR/trace.json.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import workloads as wl

PACKAGE = "ortho_subselect"
THREADS_ENV = "ORTHO_SUBSELECT_THREADS"
PASSES = ("traced1", "untraced", "traced2", "serial")


def _k_cubed(args, result):
    return len(args[0]) ** 3


def _sweeps(args, result):
    return int(result.iterations)


def _gram_flops(args, result):
    n, k = len(result), len(args[1])  # n rows of A, |I| selected columns
    return 2 * n * n * k


def _gram_bytes(args, result):
    n, k = len(result), len(args[1])
    return 8 * (3 * n * k + n * n)  # gather read + write, matmul read, result


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# (span name, module, attribute, {attr key: probe(args, result)}).
# Probes that fail leave their metric absent.
HOOKS = (
    ("cli.main", "cli", "main", {}),
    ("selection.select_subset", "selection", "select_subset",
     {"final_size": lambda a, r: len(r[0].subset)}),
    ("selection.halve_step", "selection", "halve_step", {}),
    ("selection.certify", "selection", "certify", {}),
    ("linalg.sym_eig_extremes", "linalg", "sym_eig_extremes",
     {"k_cubed_sum": _k_cubed, "sweeps": _sweeps}),
    ("linalg.deviation", "linalg", "deviation", {}),
    ("linalg.compressed_gram", "linalg", "compressed_gram",
     {"flops_computed": _gram_flops, "bytes_computed": _gram_bytes}),
    ("linalg.read_matrix_text", "linalg", "read_matrix_text", {"bytes": _file_bytes}),
    ("linalg.write_matrix_text", "linalg", "write_matrix_text", {"bytes": _file_bytes}),
    ("linalg.orthonormalize_rows", "linalg", "orthonormalize_rows", {}),
    ("linalg.ortho_row_check", "linalg", "OrthoRowMatrix.__post_init__", {}),
    ("linalg.subset_index", "linalg", "SubsetIndex.__post_init__", {}),
    ("generators.gen_trig", "generators", "gen_trig", {}),
    ("generators.gen_walsh", "generators", "gen_walsh", {}),
    ("generators.coherence", "generators", "coherence", {}),
    ("jsonio.dumps", "jsonio", "dumps", {"bytes": lambda a, r: len(r)}),
    ("rng.child_seed", "rng", "child_seed", {}),
    ("rng.make_rng", "rng", "make_rng", {}),
    ("processes.sup_process_sample", "processes", "sup_process_sample", {}),
    ("processes.estimate_process", "processes", "estimate_process", {}),
    ("processes.gaussian_sup_estimates", "processes", "gaussian_sup_estimates", {}),
    ("processes.check_quasi_triangle", "processes", "check_quasi_triangle", {}),
    ("processes.check_ball_convexity", "processes", "check_ball_convexity", {}),
    ("processes.quasimetric_d", "processes", "quasimetric_d", {}),
    ("parallel.run_indexed", "parallel", "run_indexed", {}),
)
OUTERMOST_ONLY = {"jsonio.dumps"}  # dumps recurses through its module binding
POOL = "parallel.run_indexed"
TASK = "parallel.task"


class Tracer:
    """Records spans for the hooked functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, attrs)
        self.absent: set[str] = set()  # hooks whose target does not exist
        self.probe_misses: set[str] = set()  # "<span>.<key>" some call could not measure
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, parent, probes, fn, args, kwargs):
        stack = self._stack()
        if name in OUTERMOST_ONLY and stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        attrs = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            attrs["raised"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), attrs))
        for key, probe in probes.items():
            try:
                attrs[key] = probe(args, result)
            except Exception:  # the probed field changed shape: metric absent
                self.probe_misses.add(f"{name}.{key}")
        return result

    def _wrap(self, name, fn, probes):
        if name == POOL:
            @functools.wraps(fn)
            def pool_wrapper(*args, **kwargs):
                return self._call(name, None, probes, scheduled, args, kwargs)

            def scheduled(task_fn, count, *args, **kwargs):
                pool_sid = self._stack()[-1][0]  # the span _call just opened

                def task(i):
                    return self._call(TASK, pool_sid, {}, task_fn, (i,), {})
                return fn(task, count, *args, **kwargs)
            return pool_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, None, probes, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, module, attr, probes in HOOKS:
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            target = getattr(owner, fname, None) if owner is not None else None
            if target is None:
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, target, probes)
            if owner_name:
                self._restore.append((owner, fname, target))
                setattr(owner, fname, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is target:
                        self._restore.append((m, key, target))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, target in reversed(self._restore):
            setattr(owner, key, target)
        self._restore.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def aggregate(tracer: Tracer) -> tuple[dict, dict]:
    """(exact counts, timings) per metric name; absent metrics are omitted.

    Self time is a span's duration minus the part of it covered by its
    children. Counts are deterministic for a fixed seed; timings are not.
    """
    spans = tracer.spans
    names = {sp[0]: sp[1] for sp in spans}
    children = defaultdict(list)
    for sp in spans:
        children[sp[4]].append(sp)
    counts: dict = {}
    timings: dict = {}
    attr_values: dict = defaultdict(list)
    for name, *_ in HOOKS:
        if name not in tracer.absent:
            counts[f"{name}.calls"] = 0
            timings[f"{name}.self_s"] = 0.0
            timings[f"{name}.total_s"] = 0.0
    for sid, name, start, end, parent, thread, attrs in spans:
        kids = [(max(c[2], start), min(c[3], end)) for c in children.get(sid, ())]
        dur = end - start
        if name == TASK:
            timings[f"{POOL}.task_s_sum"] = timings.get(f"{POOL}.task_s_sum", 0.0) + dur
        counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
        timings[f"{name}.total_s"] = timings.get(f"{name}.total_s", 0.0) + dur
        timings[f"{name}.self_s"] = timings.get(f"{name}.self_s", 0.0) + dur - _covered(kids)
        for key, value in attrs.items():
            attr_values[f"{name}.{key}"].append(value)
    for name, _, _, probes in HOOKS:
        for key in probes:
            metric = f"{name}.{key}"
            if name in tracer.absent or metric in tracer.probe_misses:
                continue
            values = attr_values.get(metric, [])
            if key == "final_size":
                if values:
                    counts["selection.final_size_median"] = statistics.median(values)
            else:
                counts[metric] = sum(values)
    counts.pop(f"{TASK}.calls", None)
    timings.pop(f"{TASK}.total_s", None)

    timings["trace.self_sum_s"] = sum(v for k, v in timings.items() if k.endswith(".self_s"))

    if not {"selection.halve_step", "rng.make_rng", "linalg.deviation"} & tracer.absent:
        in_step = [names.get(sp[4]) == "selection.halve_step" for sp in spans]
        draws = sum(1 for sp, ok in zip(spans, in_step) if ok and sp[1] == "rng.make_rng")
        devs = sum(1 for sp, ok in zip(spans, in_step) if ok and sp[1] == "linalg.deviation")
        accepted = sum(1 for sp in spans
                       if sp[1] == "selection.halve_step" and "raised" not in sp[6])
        counts["selection.draws"] = draws
        counts["selection.accepted"] = accepted
        counts["selection.window_rejects"] = draws - devs
        counts["selection.budget_rejects"] = devs - accepted
        if draws:
            counts["selection.accept_ratio"] = accepted / draws

    if POOL not in tracer.absent and counts.get(f"{POOL}.calls"):
        task_s = timings.setdefault(f"{POOL}.task_s_sum", 0.0)
        total = timings[f"{POOL}.total_s"]
        timings[f"{POOL}.concurrency"] = task_s / total if total > 0 else 0.0
        threads = defaultdict(set)
        for sp in spans:
            if sp[1] == TASK:
                threads[sp[4]].add(sp[5])
        timings[f"{POOL}.workers"] = max((len(t) for t in threads.values()), default=0)
    return counts, timings


def _run_pass(cli, workload: str, seed: int, run_dir: Path) -> dict:
    """Call cli.main for each invocation of set-up plus one pass."""
    run_dir.mkdir(parents=True, exist_ok=True)
    invocations = wl.setup(workload, run_dir) + wl.one_pass(workload, seed, run_dir, run_dir)
    rcs, wall = {}, 0.0
    for inv in invocations:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(list(inv.argv))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        wall += time.perf_counter() - start
        wl.stdout_path(run_dir, inv).write_text(buf.getvalue(), encoding="ascii")
        rcs[inv.label] = rc
    return {"wall_s": wall, "rcs": rcs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import ortho_subselect.cli as cli
    import_s = time.perf_counter() - start

    passes = {}

    def run(name: str) -> None:
        passes[name] = _run_pass(cli, args.workload, args.seed, args.work / name)

    def traced(name: str) -> Tracer:
        tracer = Tracer()
        tracer.install()
        try:
            run(name)
        finally:
            tracer.uninstall()
        return tracer

    # The first traced pass also warms the interpreter up (allocator arenas,
    # lazy imports), so the overhead ratio compares the two passes after it.
    first = traced("traced1")
    run("untraced")
    second = traced("traced2")
    os.environ[THREADS_ENV] = "1"
    try:
        run("serial")
    finally:
        del os.environ[THREADS_ENV]

    (counts1, _), (counts, timings) = aggregate(first), aggregate(second)
    traced_wall = passes["traced2"]["wall_s"]
    main_total = timings.get("cli.main.total_s", 0.0)
    timings.update({
        "cli.import_s": import_s,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": passes["untraced"]["wall_s"],
        "trace.overhead_ratio": traced_wall / passes["untraced"]["wall_s"],
        # time in no hooked layer: cli glue plus harness time around main()
        "trace.uncovered_s": timings.get("cli.main.self_s", 0.0) + traced_wall - main_total,
        "parallel.serial_wall_s": passes["serial"]["wall_s"],
    })
    mismatched = sorted(k for k in set(counts) | set(counts1) if counts.get(k) != counts1.get(k))
    absent = sorted(second.absent | second.probe_misses)
    with open(args.work / "spans.json", "w", encoding="ascii") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "thread", "attrs"],
                   "spans": second.spans}, fh)
    (args.work / "trace.json").write_text(json.dumps({
        "passes": passes,
        "counts": counts,
        "timings": timings,
        "counts_mismatched": mismatched,
        "absent": absent,
    }, indent=1), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
