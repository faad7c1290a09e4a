"""Golden CLI records: one JSON file per invocation of the ortho-subselect CLI.

Each record holds the argv, the input files it runs on and what the run
produced: exit code, stdout, stderr and every file it wrote, plus a SHA-256
of those exact bytes and the numpy/BLAS build that produced them. A case
marked ``digest_files`` keeps each written file's SHA-256 in place of its
text, for files too large to keep.
``tests/test_golden.py`` replays every record in-process, and a few through a
CLI process of their own, and compares.

Rewrite the records with

    PYTHONPATH=src python tests/golden/record.py [NAME ...]

Rewriting a record changes the CLI contract: the change that does it lists
every moved record in CHANGES.md and never rewrites one to hide a
trajectory that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# ahead of numpy, so that the package's OPENBLAS_NUM_THREADS default holds
import ortho_subselect
from ortho_subselect import cli, gen_trig, gen_walsh, write_matrix_text

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent

# the one-row 2-column matrix with column norms^2 0.8 and 0.2, certified
# by hand in tests/test_cli.py
SKEW = "1 2\n0.89442719099991586 0.44721359549995793\n"

# inputs of every case: generated matrices ("generate": [kind, n, M]),
# literal text ("text") or a file that an earlier record wrote ("record")
WALSH = {"walsh.txt": {"generate": ["walsh", 16, 256]}}
TRIG = {"trig.txt": {"generate": ["trig", 32, 16384]}}
# large enough that LAPACK's eigvalsh rounds differently per BLAS thread count
TRIG256 = {"trig.txt": {"generate": ["trig", 256, 4096]}}
# 92.8 MB of text: two accepted halvings at n = 256, then retries exhausted
TRIG256_WIDE = {"trig.txt": {"generate": ["trig", 256, 16384]}}
CERTIFY = ["certify", "--input", "walsh.txt", "--epsilon", "0.5", "--subset"]
SELECT = ["select", "--input", "walsh.txt", "--epsilon", "0.5", "--output", "cert.json"]
STUDY = ["study", "--kind", "walsh", "--n-list", "8,16", "--m-factor", "16",
         "--epsilon", "0.5", "--trials", "2", "--output", "study.csv"]


def _defect(text: str) -> dict:
    """A certify run on the one matrix file ``m.txt`` holding ``text``."""
    return {
        "argv": ["certify", "--input", "m.txt", "--subset", "1", "--epsilon", "0.5"],
        "inputs": {"m.txt": {"text": text}},
    }


CASES: dict[str, dict] = {
    **{
        f"verify_all_seed{seed}": {"argv": ["verify", "--suite", "all", "--seed", str(seed)]}
        for seed in (0, 1, 904337711)
    },
    "verify_all_trials2_seed3": {
        "argv": ["verify", "--suite", "all", "--trials", "2", "--seed", "3"],
    },
    # acceptance criterion 3, extended to n = 128
    "study_walsh_n128": {
        "argv": ["study", "--kind", "walsh", "--n-list", "8,16,32,64,128",
                 "--m-factor", "16", "--epsilon", "0.5", "--trials", "10",
                 "--seed", "0", "--output", "study.csv"],
    },
    "study_random": {
        "argv": ["study", "--kind", "random", "--n-list", "8,16,32",
                 "--m-factor", "16", "--epsilon", "0.5", "--trials", "5",
                 "--seed", "11", "--output", "study.csv"],
    },
    **{
        f"select_trig_seed{seed}": {
            "argv": ["select", "--input", "trig.txt", "--epsilon", "0.5",
                     "--seed", str(seed), "--output", "cert.json",
                     "--trace", "trace.json"],
            "inputs": TRIG,
        }
        for seed in (1, 2, 3, 4)
    },
    **{
        f"certify_trig_seed{seed}": {
            "argv": ["certify", "--input", "trig.txt", "--subset", "cert.json",
                     "--epsilon", "0.5"],
            "inputs": {**TRIG, "cert.json": {"record": f"select_trig_seed{seed}"}},
        }
        for seed in (1, 2, 3, 4)
    },
    "select_trig256_seed1": {
        "argv": ["select", "--input", "trig.txt", "--epsilon", "0.5", "--seed", "1",
                 "--output", "cert.json", "--trace", "trace.json"],
        "inputs": TRIG256,
    },
    "certify_trig256_seed1": {
        "argv": ["certify", "--input", "trig.txt", "--subset", "cert.json",
                 "--epsilon", "0.5"],
        "inputs": {**TRIG256, "cert.json": {"record": "select_trig256_seed1"}},
    },
    **{
        f"select_trig256x16384_seed{seed}": {
            "argv": ["select", "--input", "trig.txt", "--epsilon", "0.5",
                     "--seed", str(seed), "--output", "cert.json",
                     "--trace", "trace.json"],
            "inputs": TRIG256_WIDE,
        }
        for seed in (1, 2)
    },
    **{
        f"certify_trig256x16384_seed{seed}": {
            "argv": ["certify", "--input", "trig.txt", "--subset", "cert.json",
                     "--epsilon", "0.5"],
            "inputs": {**TRIG256_WIDE,
                       "cert.json": {"record": f"select_trig256x16384_seed{seed}"}},
        }
        for seed in (1, 2)
    },
    # the README's example: a valid certificate that misses --epsilon, exit 1
    "certify_paper_example": {
        "argv": ["certify", "--input", "walsh.txt", "--subset", "3,17,40",
                 "--epsilon", "0.9"],
        "inputs": WALSH,
    },
    # single-defect matrix files
    "defect_bad_header": _defect("3\n1 0 0\n"),
    "defect_short_file": _defect("2 2\n1 0\n"),
    "defect_underscore": _defect("1 2\n0.6_0 0.8\n"),
    "defect_row_length": _defect("2 2\n1 0\n0 1 0\n"),
    "defect_non_ascii": _defect("1 2\n1 0é\n"),
    "defect_non_finite": _defect("1 2\n1 nan\n"),
    "defect_not_orthonormal": _defect("2 2\n1 0\n1 0\n"),
    "defect_wide_header": _defect("2 1\n1\n0\n"),
    # subset errors
    "certify_skew_exit1": {
        "argv": ["certify", "--input", "m.txt", "--subset", "1", "--epsilon", "0.5"],
        "inputs": {"m.txt": {"text": SKEW}},
    },
    "subset_duplicate": {"argv": CERTIFY + ["5,3,3"], "inputs": WALSH},
    "subset_index_zero": {"argv": CERTIFY + ["0,1"], "inputs": WALSH},
    "subset_out_of_range": {
        "argv": ["certify", "--input", "m.txt", "--subset", "3,17,40", "--epsilon", "0.9"],
        "inputs": {"m.txt": {"text": SKEW}},
    },
    "subset_unparsable": {"argv": CERTIFY + ["1,a"], "inputs": WALSH},
    "subset_empty": {"argv": CERTIFY + [""], "inputs": WALSH},
    "subset_json_without_subset": {
        "argv": CERTIFY + ["s.json"],
        "inputs": {**WALSH, "s.json": {"text": '{"x": 1}'}},
    },
    "subset_json_float": {
        "argv": CERTIFY + ["s.json"],
        "inputs": {**WALSH, "s.json": {"text": "[1.5]"}},
    },
    "certify_negative_epsilon": {
        "argv": ["certify", "--input", "walsh.txt", "--subset", "1", "--epsilon", "-1"],
        "inputs": WALSH,
    },
    # select argument errors
    "select_min_size_0": {"argv": SELECT + ["--min-size", "0"], "inputs": WALSH},
    "select_max_retries_0": {"argv": SELECT + ["--max-retries", "0"], "inputs": WALSH},
    "select_kappa_negative": {"argv": SELECT + ["--kappa", "-1"], "inputs": WALSH},
    "select_epsilon_1": {
        "argv": ["select", "--input", "walsh.txt", "--epsilon", "1", "--output", "cert.json"],
        "inputs": WALSH,
    },
    # gen output, the matrix file kept by its SHA-256; n = 100 is not a power of two
    "gen_walsh_n16_m256": {
        "argv": ["gen", "--kind", "walsh", "--n", "16", "--M", "256", "--output", "w.txt"],
        "digest_files": True,
    },
    "gen_walsh_n100_m128": {
        "argv": ["gen", "--kind", "walsh", "--n", "100", "--M", "128", "--output", "w.txt"],
        "digest_files": True,
    },
    # gen argument errors
    "gen_walsh_m12": {
        "argv": ["gen", "--kind", "walsh", "--n", "4", "--M", "12", "--output", "w.txt"],
    },
    "gen_trig_n_above_m": {
        "argv": ["gen", "--kind", "trig", "--n", "5", "--M", "4", "--output", "t.txt"],
    },
    "gen_random_negative_seed": {
        "argv": ["gen", "--kind", "random", "--n", "2", "--M", "4", "--seed", "-1",
                 "--output", "r.txt"],
    },
    # study argument errors
    "study_m_factor_0": {"argv": STUDY + ["--m-factor", "0"]},
    "study_n_below_2": {"argv": STUDY + ["--n-list", "1,2"]},
    "study_n_descending": {"argv": STUDY + ["--n-list", "16,8"]},
    "study_epsilon_1": {"argv": STUDY + ["--epsilon", "1"]},
    "study_trials_0": {"argv": STUDY + ["--trials", "0"]},
}


def build_env() -> dict:
    """numpy version, BLAS build and CPU features: the exact bytes are
    compared only on a machine where all three match the record's. The BLAS
    thread count is not among them: records are written and replayed at the
    package's default of one OpenBLAS thread."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas_build = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
        simd = config.get("SIMD Extensions", {}).get("found", [])
    except (TypeError, KeyError) as exc:  # numpy < 1.26 has no mode="dicts"
        blas_build, simd = f"unknown ({type(exc).__name__})", []
    return {"numpy": np.__version__, "blas": blas_build, "cpu_simd": list(simd)}


def output_sha256(outputs: dict) -> str:
    """SHA-256 of the exact exit code, stdout, stderr and written files."""
    text = json.dumps(outputs, sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def write_inputs(inputs: dict, workdir: Path, cache: Path) -> None:
    """Create the case's input files in ``workdir``; generated matrices are
    built once per ``cache`` directory and copied."""
    for name, spec in inputs.items():
        if "text" in spec:
            (workdir / name).write_text(spec["text"], encoding="utf-8")
        elif "record" in spec:
            (workdir / name).write_text(
                load_record(spec["record"])["files"][name], encoding="ascii"
            )
        else:
            kind, n, m = spec["generate"]
            cached = cache / f"{kind}_{n}x{m}.txt"
            if not cached.exists():
                gen = {"walsh": gen_walsh, "trig": gen_trig}[kind]
                write_matrix_text(cached, gen(n, m).mat)
            shutil.copyfile(cached, workdir / name)


def run_cli_process(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    """Run ``python -m ortho_subselect`` in a fresh interpreter, with this
    package first on its path and OPENBLAS_NUM_THREADS left to the package's
    default."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    src = str(Path(ortho_subselect.__file__).resolve().parents[1])
    path = [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src]
    env["PYTHONPATH"] = os.pathsep.join(path)
    proc = subprocess.run([sys.executable, "-m", "ortho_subselect", *argv], cwd=workdir,
                          env=env, capture_output=True, encoding="utf-8", timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def run_case(case: dict, workdir: Path, cache: Path, process: bool = False) -> dict:
    """Run one case in ``workdir`` through ``cli.main``, or with ``process``
    through a CLI process of its own; returns its outputs."""
    inputs = case.get("inputs", {})
    write_inputs(inputs, workdir, cache)
    if process:
        code, stdout, stderr = run_cli_process(case["argv"], workdir)
    else:
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(case["argv"])
        finally:
            os.chdir(cwd)
        stdout, stderr = out.getvalue(), err.getvalue()
    files = {
        p.name: p.read_text(encoding="ascii")
        for p in sorted(workdir.iterdir())
        if p.name not in inputs
    }
    if case.get("digest_files"):
        files = {name: hashlib.sha256(text.encode("ascii")).hexdigest()
                 for name, text in files.items()}
    return {"exit_code": code, "stdout": stdout, "stderr": stderr, "files": files}


def load_record(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="ascii"))


def record_names() -> list[str]:
    return sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))


def main(names: list[str]) -> None:
    import tempfile

    unknown = set(names) - set(CASES)
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(sorted(unknown))}")
    env = build_env()
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "cache"
        cache.mkdir()
        # CASES order, so a record is written before a later one reads it
        for name, case in CASES.items():
            if names and name not in names:
                continue
            workdir = Path(tmp) / name
            workdir.mkdir()
            outputs = run_case(case, workdir, cache)
            record = {"argv": case["argv"], "inputs": case.get("inputs", {})}
            if case.get("digest_files"):
                record["digest_files"] = True
            record.update(outputs, sha256=output_sha256(outputs), env=env)
            (GOLDEN_DIR / f"{name}.json").write_text(
                json.dumps(record, indent=1, ensure_ascii=True) + "\n", encoding="ascii"
            )
            print(f"{name}: exit {outputs['exit_code']}")


if __name__ == "__main__":
    main(sys.argv[1:])
