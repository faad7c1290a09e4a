"""Replay the golden CLI records in tests/golden/ (written by record.py there).

Exit codes, the text around every number (so JSON key order, check names
and error lines), integers and subset lists are compared exactly. A number
written as a float on either side is compared at a relative tolerance of
1e-12, with an absolute floor of 1e-13 for the rounding noise of a quantity
that is exactly 0 (a rank-deficient Gram's lambda_min, the deviation of the
full column set). The exact bytes are compared through their SHA-256 only
where numpy, its BLAS build and the CPU features match the record's.
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
OUTPUT_KEYS = ("exit_code", "stdout", "stderr", "files")
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
REL_TOL = 1e-12
ABS_TOL = 1e-13


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    """Run each record once; both checks below read the same outputs."""
    cache = tmp_path_factory.mktemp("golden_inputs")
    done = {}

    def run(name):
        if name not in done:
            done[name] = run_case(load_record(name), tmp_path_factory.mktemp(name), cache)
        return done[name]

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


@pytest.mark.parametrize("name", NAMES)
def test_golden_record(replay, name):
    record = load_record(name)
    # the stored texts are the bytes the record's hash was taken over
    assert output_sha256({k: record[k] for k in OUTPUT_KEYS}) == record["sha256"]
    got = replay(name)
    assert got["exit_code"] == record["exit_code"]
    assert list(got["files"]) == list(record["files"])
    assert_text_close(got["stdout"], record["stdout"], "stdout")
    assert_text_close(got["stderr"], record["stderr"], "stderr")
    for fname, text in record["files"].items():
        assert_text_close(got["files"][fname], text, fname)


@pytest.mark.parametrize("name", NAMES)
def test_golden_exact_bytes(replay, name):
    record = load_record(name)
    env = build_env()
    if env != record["env"]:
        diff = {k: (env.get(k), v) for k, v in record["env"].items() if env.get(k) != v}
        pytest.skip(f"build differs from the record's (now, recorded): {diff}")
    assert output_sha256(replay(name)) == record["sha256"]
