"""Output checks that do not depend on the program under test.

Certificates are recomputed from the matrix file and the subset with
``numpy.linalg.eigvalsh``; traces, study CSVs and verify lines are checked
against the properties the file formats promise. Every check returns, per
invocation label, the list of problems found (empty when the output is
correct). Nothing here imports ``ortho_subselect``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import statistics
from pathlib import Path

import numpy as np

import workloads as wl

# Absolute tolerance on eigenvalues and deviations recomputed by LAPACK. The
# program's Jacobi solver stops at an off-diagonal norm of 1e-10, which by
# Weyl's inequality moves each eigenvalue by at most that much.
EIG_TOL = 1e-9
ORTHO_TOL = 1e-10
CERT_KEYS = ["n", "M", "subset", "lambda_min", "lambda_max",
             "epsilon_achieved", "coherence_t", "scale"]
TRACE_KEYS = ["epsilon_target", "steps", "final_subset"]
STEP_KEYS = ["parent_size", "child_size", "deviation_after", "retries_used", "seed"]
CSV_HEADER = ["n", "M", "trial", "final_size", "epsilon_achieved", "steps",
              "total_retries", "ratio"]


def read_matrix(path: Path) -> np.ndarray:
    header, body = path.read_text(encoding="ascii").split("\n", 1)
    n, m = (int(x) for x in header.split())
    return np.array(body.split(), dtype=np.float64).reshape(n, m)


def _json(path: Path):
    return json.loads(path.read_text(encoding="ascii"))


def _coherence(a: np.ndarray) -> float:
    n, m = a.shape
    return math.sqrt(m / n) * float(np.max(np.linalg.norm(a, axis=0)))


def check_setup(workload: str, setup_dir: Path, rcs: dict) -> tuple[dict, np.ndarray | None]:
    """Problems per set-up call, and the generated matrix if it is valid."""
    problems = {label: ([] if rc == 0 else [f"exit code {rc}"]) for label, rc in rcs.items()}
    if workload != "pipeline_trig":
        return problems, None
    try:
        a = read_matrix(wl.matrix_path(setup_dir))
        report = _json(setup_dir / "gen.out")
        found = _check_gen(a, report)
    except (OSError, KeyError, TypeError, ValueError, AttributeError) as exc:
        found = [f"unreadable or malformed output: {exc!r}"]
    problems["gen"].extend(found)
    return problems, (None if found else a)


def _check_gen(a: np.ndarray, report: dict) -> list[str]:
    if a.shape != (wl.TRIG_N, wl.TRIG_M):
        return [f"matrix shape {a.shape}"]
    out = []
    err = float(np.max(np.abs(a @ a.T - np.eye(wl.TRIG_N))))
    if err > ORTHO_TOL:
        out.append(f"rows not orthonormal: {err:.3e}")
    if (report["n"], report["M"]) != (wl.TRIG_N, wl.TRIG_M):
        out.append("gen report has wrong n or M")
    if not math.isclose(report["t"], _coherence(a), rel_tol=1e-12):
        out.append("gen report coherence t disagrees with the matrix")
    return out


def _check_certificate(cert: dict, a: np.ndarray) -> list[str]:
    out = []
    if list(cert) != CERT_KEYS:
        return [f"certificate keys {list(cert)}"]
    n, m = a.shape
    subset = cert["subset"]
    if (cert["n"], cert["M"]) != (n, m):
        out.append("certificate n/M disagree with the matrix")
    if not subset or any(not isinstance(i, int) for i in subset) \
            or any(b <= x for x, b in zip(subset, subset[1:])) \
            or subset[0] < 1 or subset[-1] > m:
        return out + ["subset is not strictly increasing within 1..M"]
    if cert["scale"] != m / len(subset):
        out.append("scale != M/|I|")
    cols = a[:, np.asarray(subset) - 1]
    w = np.linalg.eigvalsh((m / len(subset)) * (cols @ cols.T))
    eps_ref = max(w[-1] - 1.0, 1.0 - w[0])
    for key, ref in (("lambda_min", w[0]), ("lambda_max", w[-1]),
                     ("epsilon_achieved", eps_ref)):
        if abs(cert[key] - ref) > EIG_TOL:
            out.append(f"{key} {cert[key]!r} differs from LAPACK {ref!r}")
    if cert["epsilon_achieved"] > wl.EPSILON or eps_ref > wl.EPSILON + EIG_TOL:
        out.append(f"epsilon_achieved {cert['epsilon_achieved']!r} exceeds {wl.EPSILON}")
    if not math.isclose(cert["coherence_t"], _coherence(a), rel_tol=1e-12):
        out.append("coherence_t disagrees with the matrix")
    return out


def _check_trace(trace: dict, cert: dict, m: int) -> list[str]:
    if list(trace) != TRACE_KEYS:
        return [f"trace keys {list(trace)}"]
    out = []
    if trace["epsilon_target"] != wl.EPSILON:
        out.append("epsilon_target differs from --epsilon")
    size = m
    for i, step in enumerate(trace["steps"]):
        if list(step) != STEP_KEYS:
            return out + [f"step {i} keys {list(step)}"]
        p, c = step["parent_size"], step["child_size"]
        lo, hi = p / 2.0 * (1.0 - 1.0 / math.sqrt(p)), p / 2.0
        if p != size:
            out.append(f"step {i} parent_size {p} != previous size {size}")
        if not (c >= 1 and lo - 1e-9 <= c <= hi + 1e-9):
            out.append(f"step {i} child_size {c} outside [{lo}, {hi}]")
        if not 0.0 <= step["deviation_after"] <= wl.EPSILON:
            out.append(f"step {i} deviation_after exceeds the budget")
        if not 0 <= step["retries_used"] < 64:
            out.append(f"step {i} retries_used out of range")
        size = c
    if trace["final_subset"] != cert["subset"]:
        out.append("final_subset differs from the certificate subset")
    elif len(trace["final_subset"]) != size:
        out.append("final_subset size differs from the last child_size")
    return out


def _check_pipeline(pass_dir: Path, rcs: dict, a: np.ndarray) -> tuple[dict, list[int]]:
    problems = {label: [] for label in rcs}
    sizes = []
    for k in range(wl.PIPELINE_SELECTS):
        sel, cer = problems[f"select{k}"], problems[f"certify{k}"]
        try:
            cert = _json(pass_dir / f"cert{k}.json")
            trace = _json(pass_dir / f"trace{k}.json")
            sel_line = (pass_dir / f"select{k}.out").read_text(encoding="ascii")
        except (OSError, ValueError) as exc:
            sel.append(f"unreadable output: {exc}")
            continue
        sel.extend(_check_certificate(cert, a))
        if not sel:
            sel.extend(_check_trace(trace, cert, a.shape[1]))
            if not sel_line.startswith(f"|I|={len(cert['subset'])} "):
                sel.append(f"stdout {sel_line.strip()!r} disagrees with the certificate")
            sizes.append(len(cert["subset"]))
        try:
            recert = _json(pass_dir / f"certify{k}.out")
        except (OSError, ValueError) as exc:
            cer.append(f"unreadable output: {exc}")
            continue
        cer.extend(_check_certificate(recert, a))
        if not cer and recert["subset"] != cert.get("subset"):
            cer.append("certify subset differs from the select certificate")
    return problems, sizes


def _check_study(pass_dir: Path) -> tuple[list[str], list[int]]:
    out = []
    try:
        rows = list(csv.reader(io.StringIO((pass_dir / "study.csv").read_text(encoding="ascii"))))
        summary = _json(pass_dir / "study.out")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], []
    if not rows or rows[0] != CSV_HEADER:
        return ["study CSV header"], []
    expected = [(n, t) for n in wl.STUDY_N_LIST for t in range(wl.STUDY_TRIALS)]
    if len(rows) - 1 != len(expected):
        return [f"study CSV has {len(rows) - 1} rows, expected {len(expected)}"], []
    sizes: dict[int, list[int]] = {n: [] for n in wl.STUDY_N_LIST}
    for (n, trial), row in zip(expected, rows[1:]):
        try:
            rn, rm, rt, size, steps, retries = (int(row[i]) for i in (0, 1, 2, 3, 5, 6))
            eps, ratio = float(row[4]), float(row[7])
        except (ValueError, IndexError):
            out.append(f"row {row} does not parse")
            continue
        m = wl.STUDY_M_FACTOR * n
        if (rn, rm, rt) != (n, m, trial):
            out.append(f"row {row[:3]} out of order, expected {(n, m, trial)}")
        if not (0.0 <= eps <= wl.EPSILON):
            out.append(f"n={n} trial={trial}: epsilon_achieved {eps!r} exceeds {wl.EPSILON}")
        if not (1 <= size <= m / 2 ** steps) or retries < 0:
            out.append(f"n={n} trial={trial}: size {size} after {steps} halvings of {m}")
        if not math.isclose(ratio, size / (n * math.log(n)), rel_tol=1e-12):
            out.append(f"n={n} trial={trial}: ratio != final_size/(n ln n)")
        sizes[n].append(size)
    per_n = summary.get("per_n", [])
    if [e.get("n") for e in per_n] != list(wl.STUDY_N_LIST):
        out.append("summary per_n does not list every n")
    else:
        for e in per_n:
            if e["median_final_size"] != statistics.median(sizes[e["n"]] or [0]):
                out.append(f"summary median_final_size for n={e['n']} disagrees with the CSV")
    if (summary.get("seed"), summary.get("trials")) != (wl.STUDY_SEED, wl.STUDY_TRIALS):
        out.append("summary seed/trials differ from the flags")
    return out, [s for n in wl.STUDY_N_LIST for s in sizes[n]]


def _check_verify(pass_dir: Path) -> list[str]:
    try:
        lines = [json.loads(ln) for ln in
                 (pass_dir / "verify.out").read_text(encoding="ascii").splitlines()]
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    names = [ln.get("check") for ln in lines]
    if names != list(wl.VERIFY_CHECKS):
        return [f"verify checks {names}"]
    out = []
    for ln in lines:
        name = ln["check"]
        if "pass" in ln:
            bound_ok = (ln["max_ratio"] == 0.0 if ln["threshold"] == 0.0
                        else 0.0 <= ln["max_ratio"] <= ln["threshold"])
            if ln["pass"] is not True or not bound_ok or ln["samples"] < 1:
                out.append(f"{name}: {ln}")
            continue
        # estimator line: Q is the largest row norm of the basis, 1 for the
        # coordinate span and sqrt(n/M) for flat Walsh rows
        if name == "process_fixture_span_e1":
            q, m = 1.0, 64
            ok_mean = ln["mean"] == 1.0
        else:
            n, m = (int(x[1:]) for x in name.split("_")[2:4])
            q = math.sqrt(n / m)
            ok_mean = 0.0 < ln["mean"] <= 1.0
        if not (ok_mean and ln["std_error"] >= 0.0
                and math.isclose(ln["Q"], q, rel_tol=1e-9)
                and math.isclose(ln["bound_ratio"], ln["mean"] / (ln["Q"] * math.sqrt(math.log(m))),
                                 rel_tol=1e-9)):
            out.append(f"{name}: {ln}")
    return out


def check_pass(workload: str, pass_dir: Path, rcs: dict,
               matrix: np.ndarray | None) -> tuple[dict, list[int]]:
    """Problems per invocation of one pass, and the certified |I| of each
    selection in it."""
    sizes: list[int] = []
    try:
        if workload == "pipeline_trig":
            if matrix is None:
                raise ValueError("no valid input matrix from set-up")
            problems, sizes = _check_pipeline(pass_dir, rcs, matrix)
        elif workload == "study_walsh":
            found, sizes = _check_study(pass_dir)
            problems = {"study": found}
        else:
            problems = {"verify": _check_verify(pass_dir)}
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        problems = {label: [f"malformed output: {exc!r}"] for label in rcs}
    for label, rc in rcs.items():
        if rc != 0:
            problems[label].insert(0, f"exit code {rc}")
    return problems, sizes


def outputs(workload: str, run_dir: Path) -> dict[str, list[Path]]:
    """Per invocation label, the files whose bytes the CLI promises to
    reproduce exactly for identical flags."""
    if workload == "study_walsh":
        return {"study": [run_dir / "study.csv", run_dir / "study.out"]}
    if workload == "verify_all":
        return {"verify": [run_dir / "verify.out"]}
    out = {}
    for k in range(wl.PIPELINE_SELECTS):
        out[f"select{k}"] = [run_dir / f"cert{k}.json", run_dir / f"trace{k}.json",
                             run_dir / f"select{k}.out"]
        out[f"certify{k}"] = [run_dir / f"certify{k}.out"]
    return out


def setup_outputs(workload: str, setup_dir: Path) -> dict[str, list[Path]]:
    if workload == "pipeline_trig":
        return {"gen": [wl.matrix_path(setup_dir), setup_dir / "gen.out"]}
    return {}


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode("ascii") + b"\0")
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()
