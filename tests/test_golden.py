"""Replay the golden CLI records in tests/golden/ (written by record.py there).

The records are the one home of the CLI's behaviour: its exit codes, its
error and usage lines, and the bytes it prints and writes. tests/test_cli.py
keeps only what a record cannot pin: monkeypatches, hypothesis properties,
import probes, the files left behind, and the process itself.

Exit codes, the text around every number (so JSON key order, check names,
error lines and argparse's usage text), integers, subset lists and the
SHA-256 that a ``digest_files`` record keeps in place of a file's text are
compared exactly. A number written as a float on either side is compared at
a relative tolerance of 1e-12, with an absolute floor of 1e-13 for the
rounding noise of a quantity that is exactly 0 (a rank-deficient Gram's
lambda_min, the deviation of the full column set). The exact bytes are
compared through their SHA-256 only where numpy, its BLAS build and the CPU
features match the record's.

Every record replays in-process through ``record.run_main``, at the
package's default of one OpenBLAS thread: tests/conftest.py imports the
package before numpy loads. PROCESS_NAMES replay once more, each through
``record.run_cli_process``: a ``python -m ortho_subselect`` process of its
own, which shares ``cli.run()`` and its exit path with the console script
and starts with OPENBLAS_NUM_THREADS unset. Its stdout is a pipe, so
block-buffered: ``verify_all_seed0`` (exit 0, 16 lines) and
``certify_paper_example`` (exit 1) show that the output is flushed before
the hard exit, and ``select_seed_digit_group`` that a usage error exits 2.
They cover each command but gen, and the trig 256 x 4096 records, whose
bytes change under another thread count. The trig 256 x 16384 records
replay in-process only: their 92.8 MB input makes a CLI process of their
own cost about 7 s more.
"""

import math
import re

import pytest

from golden.record import (
    CASES,
    build_env,
    load_record,
    output_sha256,
    record_names,
    run_case,
)

NAMES = record_names()
PROCESS_NAMES = ["verify_all_seed0", "verify_all_seed904337711", "study_walsh_n128",
                 "select_trig_seed1", "certify_trig_seed1", "select_trig256_seed1",
                 "certify_trig256_seed1", "certify_paper_example", "select_seed_digit_group"]
OUTPUT_KEYS = ("exit_code", "stdout", "stderr", "files")
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
REL_TOL = 1e-12
ABS_TOL = 1e-13


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    """Run each record once per mode; the record and exact-bytes checks of a
    mode read the same outputs."""
    cache = tmp_path_factory.mktemp("golden_inputs")
    done = {}

    def run(name, process=False):
        if (name, process) not in done:
            done[name, process] = run_case(
                load_record(name), tmp_path_factory.mktemp(name), cache, process
            )
        return done[name, process]

    return run


def _is_int(token: str) -> bool:
    return not any(c in token for c in ".eE")


def assert_text_close(got: str, want: str, where: str) -> None:
    assert NUMBER.split(got) == NUMBER.split(want), f"{where}: text differs"
    got_nums, want_nums = NUMBER.findall(got), NUMBER.findall(want)
    for k, (g, w) in enumerate(zip(got_nums, want_nums)):
        if _is_int(g) and _is_int(w):
            assert g == w, f"{where}: number {k} is {g}, recorded {w}"
        else:
            assert math.isclose(float(g), float(w), rel_tol=REL_TOL, abs_tol=ABS_TOL), (
                f"{where}: number {k} is {g}, recorded {w}"
            )


def test_every_case_has_its_record():
    assert NAMES == sorted(CASES)
    for name in NAMES:
        record = load_record(name)
        assert record["argv"] == CASES[name]["argv"], name
        assert record["inputs"] == CASES[name].get("inputs", {}), name
        assert record.get("digest_files") == CASES[name].get("digest_files"), name


def assert_matches_record(got: dict, record: dict) -> None:
    # the stored texts are the bytes the record's hash was taken over
    assert output_sha256({k: record[k] for k in OUTPUT_KEYS}) == record["sha256"]
    assert got["exit_code"] == record["exit_code"]
    assert list(got["files"]) == list(record["files"])
    assert_text_close(got["stdout"], record["stdout"], "stdout")
    assert_text_close(got["stderr"], record["stderr"], "stderr")
    for fname, text in record["files"].items():
        if record.get("digest_files"):  # a SHA-256, compared exactly
            assert got["files"][fname] == text, fname
        else:
            assert_text_close(got["files"][fname], text, fname)


def skip_unless_recorded_build(record: dict) -> None:
    env = build_env()
    if env != record["env"]:
        diff = {k: (env.get(k), v) for k, v in record["env"].items() if env.get(k) != v}
        pytest.skip(f"build differs from the record's (now, recorded): {diff}")


def test_a_trace_certifies_as_its_certificate():
    # certify --subset reads a trace's final_subset
    want = load_record("certify_trig_seed1")["stdout"]
    assert load_record("certify_trig_seed1_trace")["stdout"] == want


@pytest.mark.parametrize("name", NAMES)
def test_golden_record(replay, name):
    assert_matches_record(replay(name), load_record(name))


@pytest.mark.parametrize("name", NAMES)
def test_golden_exact_bytes(replay, name):
    record = load_record(name)
    skip_unless_recorded_build(record)
    assert output_sha256(replay(name)) == record["sha256"]


@pytest.mark.parametrize("name", PROCESS_NAMES)
def test_golden_record_cli_process(replay, name):
    assert_matches_record(replay(name, process=True), load_record(name))


@pytest.mark.parametrize("name", PROCESS_NAMES)
def test_golden_exact_bytes_cli_process(replay, name):
    record = load_record(name)
    skip_unless_recorded_build(record)
    assert output_sha256(replay(name, process=True)) == record["sha256"]
