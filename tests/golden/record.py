"""Golden CLI records: one JSON file per invocation of the ortho-subselect CLI.

Each record holds the argv, the input files it runs on and what the run
produced: exit code, stdout, stderr and every file it wrote, plus a SHA-256
of those exact bytes and the numpy/BLAS build that produced them. A case
marked ``digest_files`` keeps each written file's SHA-256 in place of its
text, for files too large to keep.
``tests/test_golden.py`` replays every record in-process, and a few through a
CLI process of their own, and compares. Apart from direct calls of
``cli.main``, its two runners, ``run_main`` and ``run_cli_process``, are the
only ways the test suite runs the CLI.

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
from unittest import mock

# ahead of numpy, so that the package's OPENBLAS_NUM_THREADS default holds
import ortho_subselect
from ortho_subselect import cli, gen_trig, gen_walsh, write_matrix_text

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent

# the one-row 2-column matrix with column norms^2 0.8 and 0.2: subset {1}
# certifies epsilon 0.6 and {1, 2} epsilon 0
SKEW = "1 2\n0.89442719099991586 0.44721359549995793\n"

# inputs of every case: generated matrices ("generate": [kind, n, M]),
# literal text ("text") or a file that an earlier record wrote ("record")
WALSH = {"walsh.txt": {"generate": ["walsh", 16, 256]}}
WALSH4 = {"w.txt": {"generate": ["walsh", 4, 16]}}
TRIG = {"trig.txt": {"generate": ["trig", 32, 16384]}}
# large enough that LAPACK's eigvalsh rounds differently per BLAS thread count
TRIG256 = {"trig.txt": {"generate": ["trig", 256, 4096]}}
# 92.8 MB of text: two accepted halvings at n = 256, then retries exhausted
TRIG256_WIDE = {"trig.txt": {"generate": ["trig", 256, 16384]}}
CERTIFY = ["certify", "--input", "walsh.txt", "--epsilon", "0.5", "--subset"]
CERTIFY4 = ["certify", "--input", "w.txt", "--epsilon", "0.5", "--subset"]
SELECT = ["select", "--input", "walsh.txt", "--epsilon", "0.5", "--output", "cert.json"]
SELECT4 = ["select", "--input", "w.txt", "--output", "c.json"]
STUDY = ["study", "--kind", "walsh", "--n-list", "8,16", "--m-factor", "16",
         "--epsilon", "0.5", "--trials", "2", "--output", "study.csv"]
# argparse wraps its usage text at $COLUMNS, else at the terminal's width,
# and where it breaks a line differs between Python versions; both runners
# set a width at which the usage text stays on one line
USAGE_WIDTH = {"COLUMNS": "1000"}


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
    # one trial is a usage error only for the process suite, which needs two
    **{
        f"verify_{suite}_trials_1": {"argv": ["verify", "--suite", suite, "--trials", "1"]}
        for suite in ("process", "all", "sudakov", "quasimetric")
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
    # every draw these runs decide has a deviation at least 1.7e-3 from
    # epsilon, so last-bit differences between BLAS builds cannot flip one
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
    # the trace's final_subset as the subset: the stdout of certify_trig_seed1
    "certify_trig_seed1_trace": {
        "argv": ["certify", "--input", "trig.txt", "--subset", "trace.json",
                 "--epsilon", "0.5"],
        "inputs": {**TRIG, "trace.json": {"record": "select_trig_seed1"}},
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
    # 300 indices are over 1,000 bytes, longer than any file name may be; the
    # inline list and the JSON file give the same stdout
    "certify_long_subset_inline": {
        "argv": ["certify", "--input", "w.txt", "--subset",
                 ",".join(map(str, range(1, 601, 2))), "--epsilon", "0.5"],
        "inputs": {"w.txt": {"generate": ["walsh", 16, 1024]}},
    },
    "certify_long_subset_json": {
        "argv": ["certify", "--input", "w.txt", "--subset", "s.json", "--epsilon", "0.5"],
        "inputs": {"w.txt": {"generate": ["walsh", 16, 1024]},
                   "s.json": {"text": json.dumps(list(range(1, 601, 2)))}},
    },
    "certify_zero_epsilon": {
        "argv": ["certify", "--input", "w.txt", "--subset",
                 ",".join(map(str, range(1, 17))), "--epsilon", "0"],
        "inputs": WALSH4,
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
    "certify_skew_full_set": {
        "argv": ["certify", "--input", "m.txt", "--subset", "1,2", "--epsilon", "1e-9"],
        "inputs": {"m.txt": {"text": SKEW}},
    },
    "subset_duplicate": {"argv": CERTIFY + ["5,3,3"], "inputs": WALSH},
    # the duplicate is named before the range is checked
    "subset_json_duplicate": {
        "argv": ["certify", "--input", "m.txt", "--subset", "s.json", "--epsilon", "0.5"],
        "inputs": {"m.txt": {"text": SKEW}, "s.json": {"text": "[5, 3, 3]"}},
    },
    "subset_index_zero": {"argv": CERTIFY + ["0,1"], "inputs": WALSH},
    "subset_out_of_range": {
        "argv": ["certify", "--input", "m.txt", "--subset", "3,17,40", "--epsilon", "0.9"],
        "inputs": {"m.txt": {"text": SKEW}},
    },
    "subset_unparsable": {"argv": CERTIFY + ["1,a"], "inputs": WALSH},
    # int() reads 1_0 as 10, a valid column of this 4 x 16 matrix, and the
    # Arabic-Indic digits 1,2,3 as 1, 2 and 3
    **{
        f"subset_{name}": {
            "argv": ["certify", "--input", "w.txt", "--subset", subset, "--epsilon", "5"],
            "inputs": WALSH4,
        }
        for name, subset in (("digit_group", "1_0"), ("second_digit_group", "1,1_0"),
                             ("arabic_indic", "\u0661,\u0662,\u0663"))
    },
    "subset_empty": {"argv": CERTIFY + [""], "inputs": WALSH},
    # Path("") is Path("."), which exists; only "." itself names the directory
    "subset_dot": {"argv": CERTIFY4 + ["."], "inputs": WALSH4},
    "subset_json_without_subset": {
        "argv": CERTIFY + ["s.json"],
        "inputs": {**WALSH, "s.json": {"text": '{"x": 1}'}},
    },
    "subset_json_float": {
        "argv": CERTIFY + ["s.json"],
        "inputs": {**WALSH, "s.json": {"text": "[1.5]"}},
    },
    # read as 1..8, these would certify: rows of H8, deviation 0
    "subset_json_bool": {
        "argv": CERTIFY4 + ["s.json"],
        "inputs": {**WALSH4, "s.json": {"text": '{"subset": [true, 2, 3, 4, 5, 6, 7, 8]}'}},
    },
    "subset_json_truncated": {
        "argv": CERTIFY4 + ["s.json"],
        "inputs": {**WALSH4, "s.json": {"text": '{"subset": [1, 2'}},
    },
    "subset_json_non_ascii": {
        "argv": CERTIFY4 + ["s.json"],
        "inputs": {**WALSH4, "s.json": {"text": '{"subset": [1, 2]}\u00e9'}},
    },
    "certify_negative_epsilon": {
        "argv": ["certify", "--input", "walsh.txt", "--subset", "1", "--epsilon", "-1"],
        "inputs": WALSH,
    },
    # the subset does not parse, so only a check made before it is read passes
    **{
        f"certify_epsilon_{name}": {
            "argv": ["certify", "--input", "w.txt", "--subset", "x", f"--epsilon={epsilon}"],
            "inputs": WALSH4,
        }
        for name, epsilon in (("nan", "nan"), ("inf", "inf"), ("minus_inf", "-inf"),
                              ("minus_1", "-1"))
    },
    # select argument errors
    "select_min_size_0": {"argv": SELECT + ["--min-size", "0"], "inputs": WALSH},
    "select_max_retries_0": {"argv": SELECT + ["--max-retries", "0"], "inputs": WALSH},
    "select_kappa_negative": {"argv": SELECT + ["--kappa", "-1"], "inputs": WALSH},
    # a usage error: argparse exits 2 before any file is written
    "select_seed_digit_group": {"argv": SELECT + ["--seed", "1_0"], "inputs": WALSH},
    "select_epsilon_1": {
        "argv": ["select", "--input", "walsh.txt", "--epsilon", "1", "--output", "cert.json"],
        "inputs": WALSH,
    },
    "select_not_orthonormal": {
        "argv": ["select", "--input", "m.txt", "--epsilon", "0.5", "--output", "c.json"],
        "inputs": {"m.txt": {"text": "2 3\n1 0 0\n1 1 0\n"}},
    },
    # usage errors: argparse rejects other scripts' digits before any file is read
    "select_epsilon_arabic_indic": {
        "argv": SELECT4 + ["--epsilon", "\u0660.\u0665", "--seed", "\u0661\u0660"],
    },
    "study_n_list_arabic_indic": {
        "argv": ["study", "--kind", "walsh", "--n-list", "\u0668,16", "--m-factor", "16",
                 "--epsilon", "0.5", "--output", "s.csv"],
    },
    "verify_trials_arabic_indic": {"argv": ["verify", "--suite", "sudakov", "--trials", "\u0662"]},
    "verify_trials_0": {"argv": ["verify", "--suite", "sudakov", "--trials", "0"]},
    "verify_trials_negative": {"argv": ["verify", "--suite", "sudakov", "--trials", "-1"]},
    "usage_unknown_kind": {
        "argv": ["gen", "--kind", "nope", "--n", "1", "--M", "2", "--output", "x.txt"],
    },
    "usage_unknown_command": {"argv": ["frobnicate"]},
    # a loose budget, and a min_size that stops before the first halving
    "select_trig3x11_loose": {
        "argv": ["select", "--input", "t.txt", "--epsilon", "0.999", "--output", "c1.json"],
        "inputs": {"t.txt": {"generate": ["trig", 3, 11]}},
    },
    "select_trig3x11_min_size_11": {
        "argv": ["select", "--input", "t.txt", "--epsilon", "0.5", "--min-size", "11",
                 "--output", "c2.json"],
        "inputs": {"t.txt": {"generate": ["trig", 3, 11]}},
    },
    # epsilon^2 underflows to 0, or kappa (t/epsilon)^2 n ln n overflows: the
    # floor is +inf, so the cascade makes no halving
    "select_epsilon_underflow": {"argv": SELECT4 + ["--epsilon", "1e-200"], "inputs": WALSH4},
    "select_kappa_overflow": {
        "argv": SELECT4 + ["--epsilon", "0.5", "--kappa", "1e308"], "inputs": WALSH4,
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
    # the random kind's QR rounds per BLAS build, so its numbers are compared
    # at 1e-12 on other builds and its bytes only on the recording one
    "gen_random_n8_m64_seed3": {
        "argv": ["gen", "--kind", "random", "--n", "8", "--M", "64", "--seed", "3",
                 "--output", "r.txt"],
    },
    # the walsh and trig kinds read no seed, so a negative one is no error;
    # the trig file is kept as text, since its cosines near 0 round per libm
    "gen_walsh_negative_seed": {
        "argv": ["gen", "--kind", "walsh", "--n", "2", "--M", "4", "--seed", "-1",
                 "--output", "m.txt"],
        "digest_files": True,
    },
    "gen_trig_negative_seed": {
        "argv": ["gen", "--kind", "trig", "--n", "2", "--M", "4", "--seed", "-1",
                 "--output", "m.txt"],
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
    # the one check ahead of min(n_list)
    "study_n_list_empty": {"argv": STUDY + ["--n-list", ""]},
    "study_epsilon_1": {"argv": STUDY + ["--epsilon", "1"]},
    "study_trials_0": {"argv": STUDY + ["--trials", "0"]},
    "study_kappa_nan": {"argv": STUDY + ["--kappa", "nan"]},
    # epsilon^2 underflows: the floor is +inf and every column is kept
    "study_epsilon_underflow": {
        "argv": ["study", "--kind", "walsh", "--n-list", "4", "--m-factor", "4",
                 "--epsilon", "1e-170", "--trials", "1", "--output", "study.csv"],
    },
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


def run_main(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    """Run ``cli.main(argv)`` in this process with ``workdir`` as the working
    directory; a usage error's ``SystemExit`` gives its code, as a process
    would."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, USAGE_WIDTH):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def run_cli_process(argv: list[str], workdir: Path, env: dict | None = None,
                    stdin: str | None = None) -> tuple[int, str, str]:
    """Run ``python -m ortho_subselect`` in a fresh interpreter, with this
    package first on its path, OPENBLAS_NUM_THREADS left to the package's
    default unless ``env`` sets it, and stdout block-buffered as in any pipe,
    so that the exit path must flush it; ``stdin`` is the text piped in."""
    child = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
    child.update(USAGE_WIDTH, **(env or {}))
    src = str(Path(ortho_subselect.__file__).resolve().parents[1])
    path = [src, child["PYTHONPATH"]] if child.get("PYTHONPATH") else [src]
    child["PYTHONPATH"] = os.pathsep.join(path)
    proc = subprocess.run([sys.executable, "-m", "ortho_subselect", *argv], cwd=workdir,
                          env=child, input=stdin, capture_output=True, encoding="utf-8",
                          timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def run_case(case: dict, workdir: Path, cache: Path, process: bool = False) -> dict:
    """Run one case in ``workdir`` through ``cli.main``, or with ``process``
    through a CLI process of its own; returns its outputs."""
    inputs = case.get("inputs", {})
    write_inputs(inputs, workdir, cache)
    run = run_cli_process if process else run_main
    code, stdout, stderr = run(case["argv"], workdir)
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
