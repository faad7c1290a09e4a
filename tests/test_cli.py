import argparse
import filecmp
import io
import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortho_subselect import (
    OrthoRowMatrix,
    cli,
    gaussian_sup_estimates,
    gen_walsh,
    processes,
    read_matrix_text,
    write_matrix_text,
)
from ortho_subselect.cli import (
    CSV_HEADER,
    StudyConfig,
    StudyRow,
    main,
    run_study,
    study_rows_to_csv,
    study_summary,
)
from ortho_subselect.rng import trial_rngs

CMD = [sys.executable, "-m", "ortho_subselect"]


def run_cli(*args, cwd=None):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, cwd=cwd)


def test_gen_walsh_writes_matrix_and_report(tmp_path):
    out = tmp_path / "w.txt"
    res = run_cli("gen", "--kind", "walsh", "--n", "4", "--M", "8",
                  "--output", str(out))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["t"] == 1.0
    mat = read_matrix_text(out)
    assert np.all(np.abs(np.abs(mat) - 1 / math.sqrt(8)) == 0.0)


def test_gen_rejects_bad_walsh_size(tmp_path):
    res = run_cli("gen", "--kind", "walsh", "--n", "4", "--M", "12",
                  "--output", str(tmp_path / "w.txt"))
    assert res.returncode == 1
    assert "power of 2" in res.stderr


def test_gen_random_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    r1 = run_cli("gen", "--kind", "random", "--n", "4", "--M", "64",
                 "--seed", "7", "--output", str(a))
    r2 = run_cli("gen", "--kind", "random", "--n", "4", "--M", "64",
                 "--seed", "7", "--output", str(b))
    assert r1.returncode == r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert r1.stdout == r2.stdout


def test_gen_trig_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the trig rows are only normalized; a BLAS QR would round per thread count
    env = dict(os.environ)

    def run_gen_trig(out, env):
        res = subprocess.run(CMD + ["gen", "--kind", "trig", "--n", "32", "--M", "16384",
                                    "--output", str(out)],
                             env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return res.stdout

    one, two = tmp_path / "one.txt", tmp_path / "two.txt"
    one_stdout = run_gen_trig(one, {**env, "OPENBLAS_NUM_THREADS": "1"})
    two_stdout = run_gen_trig(two, {**env, "OPENBLAS_NUM_THREADS": "2"})
    assert filecmp.cmp(one, two, shallow=False)
    assert one_stdout == two_stdout


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "walsh", "--n", "2", "--M", "1099511627776", "--output", "w.txt"],
    ["study", "--kind", "walsh", "--n-list", "8", "--m-factor", "1099511627776",
     "--epsilon", "0.5", "--trials", "1", "--output", "s.csv"],
])
def test_a_shape_too_large_to_allocate_is_an_error_line(monkeypatch, capsys, tmp_path, argv):
    # never allocate here: an overcommitting host may grant the real request
    message = "Unable to allocate 16.0 TiB for an array with shape (2, 1099511627776)"

    def too_large(n, m):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "gen_walsh", too_large)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("kind, code", [("random", 1), ("walsh", 0), ("trig", 0)])
def test_gen_negative_seed_is_rejected_only_where_it_is_used(tmp_path, kind, code):
    res = run_cli("gen", "--kind", kind, "--n", "2", "--M", "4", "--seed", "-1",
                  "--output", str(tmp_path / "m.txt"))
    assert res.returncode == code
    assert res.stderr == ("error: seed must be >= 0, got -1\n" if code else "")


# records the BLAS thread setting at the moment numpy is first looked up
NUMPY_IMPORT_SPY = """
import importlib.abc, os, sys
assert "numpy" not in sys.modules
seen = []
class Spy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
import ortho_subselect
print(seen)
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_blas_thread_count_is_set_before_numpy_loads(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    res = subprocess.run([sys.executable, "-c", NUMPY_IMPORT_SPY], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"{[preset or '1']}\n"


def test_sudakov_threshold_is_the_normal_quantile_it_names():
    assert cli.SUDAKOV_THRESHOLD == statistics.NormalDist().inv_cdf(1 - cli.VERIFY_ALPHA / 4)


def test_cli_import_leaves_out_statistics_and_decimal():
    # statistics loads decimal and fractions, half a MiB of RSS
    code = ("import sys, ortho_subselect.cli; "
            "print([m for m in ('statistics', 'decimal') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


# modules that numpy itself loads (numpy 1.x imports numpy.ma eagerly) are
# not the package's doing, so the snapshot is taken after import numpy
STUDY_MODULES_PROBE = """
import sys
import numpy
before = set(sys.modules)
from ortho_subselect import cli
code = cli.main(["study", "--kind", "walsh", "--n-list", "8,16", "--m-factor", "16",
                 "--epsilon", "0.5", "--trials", "2", "--output", sys.argv[1]])
names = ("numpy.ma", "statistics", "decimal", "fractions")
print(code, [m for m in names if m in sys.modules and m not in before])
"""


def test_study_leaves_out_numpy_ma_and_statistics(tmp_path):
    # np.median loads numpy.ma, and statistics.median decimal and fractions
    res = subprocess.run([sys.executable, "-c", STUDY_MODULES_PROBE,
                          str(tmp_path / "s.csv")], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 []"


_MEDIAN_SAMPLES = st.one_of(
    # np.median can return 0.0 where the middle value is -0.0, so zeros are +0.0
    st.lists(st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0),
             min_size=1, max_size=40),
    st.lists(st.integers(0, 2**52 - 1), min_size=1, max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(_MEDIAN_SAMPLES)
def test_median_is_numpy_and_statistics_median_bit_for_bit(values):
    with np.errstate(over="ignore"):  # two values near the float max sum to inf
        expected = float(np.median(values))
    got = cli._median(values)
    assert type(got) is float
    assert got.hex() == expected.hex()
    assert got.hex() == float(statistics.median(values)).hex()


def test_usage_errors_exit_2(tmp_path):
    res = run_cli("gen", "--kind", "nope", "--n", "1", "--M", "2",
                  "--output", str(tmp_path / "x.txt"))
    assert res.returncode == 2
    res = run_cli("frobnicate")
    assert res.returncode == 2


@pytest.mark.parametrize("same", [("--output", "--trace"), ("--input", "--output"),
                                  ("--input", "--trace")],
                         ids=["output-trace", "input-output", "input-trace"])
def test_select_rejects_two_flags_naming_one_file(tmp_path, same):
    # a shared path would lose the certificate to the trace, or the input
    # matrix to either; the second flag spells the path differently
    mat = tmp_path / "w.txt"
    run_cli("gen", "--kind", "walsh", "--n", "4", "--M", "16", "--output", str(mat))
    before = mat.read_bytes()
    paths = {"--input": mat, "--output": tmp_path / "c.json", "--trace": tmp_path / "t.json"}
    shared = paths[same[0]]
    paths[same[1]] = f"{shared.parent}/./{shared.name}"
    res = run_cli("select", "--epsilon", "0.5",
                  *[arg for item in paths.items() for arg in map(str, item)])
    assert res.returncode == 2
    assert f"argument {same[1]}: same file as {same[0]}" in res.stderr
    assert mat.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["w.txt"]


def test_select_input_in_a_symlink_loop_is_an_error_line(tmp_path):
    # the same-file check resolves the paths without raising on the loop,
    # and reading the input reports it
    (tmp_path / "a").symlink_to(tmp_path / "b")
    (tmp_path / "b").symlink_to(tmp_path / "a")
    res = run_cli("select", "--input", str(tmp_path / "a"), "--epsilon", "0.5",
                  "--output", str(tmp_path / "c.json"))
    assert res.returncode == 1
    assert res.stderr.startswith("error: ") and "symbolic links" in res.stderr


def test_select_certify_round_trip(tmp_path):
    mat = tmp_path / "w.txt"
    cert_path = tmp_path / "cert.json"
    trace_path = tmp_path / "trace.json"
    run_cli("gen", "--kind", "walsh", "--n", "16", "--M", "256",
            "--output", str(mat))
    res = run_cli("select", "--input", str(mat), "--epsilon", "0.5",
                  "--seed", "42", "--output", str(cert_path),
                  "--trace", str(trace_path))
    assert res.returncode == 0
    assert res.stdout.startswith("|I|=")
    cert = json.loads(cert_path.read_text())
    assert cert["epsilon_achieved"] <= 0.5
    assert len(cert["subset"]) < 256

    recheck = run_cli("certify", "--input", str(mat),
                      "--subset", str(cert_path), "--epsilon", "0.5")
    assert recheck.returncode == 0
    recert = json.loads(recheck.stdout)
    assert recert["lambda_min"] == cert["lambda_min"]
    assert recert["lambda_max"] == cert["lambda_max"]
    assert recert["subset"] == cert["subset"]

    trace = json.loads(trace_path.read_text())
    assert trace["final_subset"] == cert["subset"]
    assert trace["epsilon_target"] == 0.5


def test_select_loose_budget_and_min_size(tmp_path):
    mat = tmp_path / "t.txt"
    run_cli("gen", "--kind", "trig", "--n", "3", "--M", "11",
            "--output", str(mat))
    res = run_cli("select", "--input", str(mat), "--epsilon", "0.999",
                  "--output", str(tmp_path / "c1.json"))
    assert res.returncode == 0
    res = run_cli("select", "--input", str(mat), "--epsilon", "0.5",
                  "--min-size", "11", "--output", str(tmp_path / "c2.json"))
    assert res.returncode == 0
    cert = json.loads((tmp_path / "c2.json").read_text())
    assert cert["epsilon_achieved"] <= 1e-10
    assert len(cert["subset"]) == 11


def test_certify_inline_subset_failure_path(tmp_path):
    mat = tmp_path / "skew.txt"
    a = math.sqrt(0.8)
    b = math.sqrt(0.2)
    mat.write_text(f"1 2\n{a:.17g} {b:.17g}\n")
    res = run_cli("certify", "--input", str(mat), "--subset", "1",
                  "--epsilon", "0.5")
    assert res.returncode == 1  # achieved 0.6 > 0.5
    cert = json.loads(res.stdout)
    assert abs(cert["epsilon_achieved"] - 0.6) <= 1e-12
    res = run_cli("certify", "--input", str(mat), "--subset", "1,2",
                  "--epsilon", "1e-9")
    assert res.returncode == 0
    res = run_cli("certify", "--input", str(mat), "--subset", "3",
                  "--epsilon", "0.5")
    assert res.returncode == 1
    assert "error" in res.stderr
    dup = tmp_path / "dup.json"
    dup.write_text("[5, 3, 3]")
    for spec in ("5,3,3", str(dup)):
        res = run_cli("certify", "--input", str(mat), "--subset", spec,
                      "--epsilon", "0.5")
        assert res.returncode == 1
        assert res.stderr.startswith("error: duplicate index 3"), res.stderr


@pytest.mark.parametrize("epsilon", ["nan", "-1", "inf", "-inf"])
def test_certify_rejects_non_finite_or_negative_epsilon(tmp_path, epsilon):
    mat = tmp_path / "w.txt"
    run_cli("gen", "--kind", "walsh", "--n", "4", "--M", "16",
            "--output", str(mat))
    # the subset does not parse, so only a check made before it is read passes
    res = run_cli("certify", "--input", str(mat), "--subset", "x",
                  f"--epsilon={epsilon}")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: epsilon must be finite and >= 0")
    assert "Traceback" not in res.stderr


def test_certify_empty_subset_is_not_the_current_directory(tmp_path):
    mat = tmp_path / "w.txt"
    run_cli("gen", "--kind", "walsh", "--n", "4", "--M", "16",
            "--output", str(mat))
    # Path("") is Path("."), which exists; only "." itself names the directory
    res = run_cli("certify", "--input", str(mat), "--subset", "",
                  "--epsilon", "0.5")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == "error: empty subset specification\n"
    res = run_cli("certify", "--input", str(mat), "--subset", ".",
                  "--epsilon", "0.5")
    assert res.returncode == 1
    assert "Is a directory: '.'" in res.stderr


def test_certify_long_inline_subset_matches_json_file(tmp_path):
    # 300 indices are over 1,000 bytes, longer than any file name may be
    mat = tmp_path / "w.txt"
    run_cli("gen", "--kind", "walsh", "--n", "16", "--M", "1024",
            "--output", str(mat))
    subset = list(range(1, 601, 2))
    listed = tmp_path / "subset.json"
    listed.write_text(json.dumps(subset))
    inline = ",".join(map(str, subset))
    assert len(inline) > 255
    got, want = (run_cli("certify", "--input", str(mat), "--subset", spec,
                         "--epsilon", "0.5") for spec in (inline, str(listed)))
    assert got.stderr == want.stderr == ""
    assert (got.returncode, got.stdout) == (want.returncode, want.stdout)
    assert json.loads(got.stdout)["subset"] == subset


def test_certify_accepts_zero_epsilon(tmp_path):
    mat = tmp_path / "w.txt"
    run_cli("gen", "--kind", "walsh", "--n", "4", "--M", "16",
            "--output", str(mat))
    full = ",".join(str(j) for j in range(1, 17))
    res = run_cli("certify", "--input", str(mat), "--subset", full,
                  "--epsilon", "0")
    assert res.returncode == 0
    assert json.loads(res.stdout)["epsilon_achieved"] <= 1e-12


@pytest.mark.parametrize(
    "subset", [[1.5, 2.9, 3, 4, 5, 6, 7, 8], [True, 2, 3, 4, 5, 6, 7, 8]]
)
def test_certify_rejects_non_integer_json_subset(tmp_path, subset):
    # truncated to 1..8 these would certify: rows of H8, deviation 0
    mat = tmp_path / "w.txt"
    run_cli("gen", "--kind", "walsh", "--n", "4", "--M", "16",
            "--output", str(mat))
    spec = tmp_path / "cert.json"
    spec.write_text(json.dumps({"subset": subset}))
    res = run_cli("certify", "--input", str(mat), "--subset", str(spec),
                  "--epsilon", "0.5")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "subset must be a list of integers" in res.stderr


@pytest.mark.parametrize(
    "flag", [("--max-retries", "0"), ("--max-retries", "-3"), ("--kappa", "-1"),
             ("--kappa", "inf"), ("--kappa", "nan")]
)
def test_select_rejects_bad_retries_and_kappa(tmp_path, flag):
    mat = tmp_path / "w.txt"
    run_cli("gen", "--kind", "walsh", "--n", "4", "--M", "16",
            "--output", str(mat))
    res = run_cli("select", "--input", str(mat), "--epsilon", "0.5",
                  *flag, "--output", str(tmp_path / "c.json"))
    assert res.returncode == 1
    assert res.stderr.startswith("error: ")
    assert flag[0][2:].replace("-", "_") in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "c.json").exists()


def test_study_rejects_nan_kappa(tmp_path):
    res = run_cli("study", "--kind", "walsh", "--n-list", "8", "--m-factor",
                  "16", "--epsilon", "0.5", "--trials", "1", "--kappa", "nan",
                  "--output", str(tmp_path / "s.csv"))
    assert res.returncode == 1
    assert res.stderr.startswith("error: kappa")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "name, data",
    [("cert.json", b'{"subset": [1, 2'), ("cert.json", b'{"subset": [1, 2]}\xc3\xa9'),
     ("w.txt", b"1 1\n1\xc3\xa9\n")],
    ids=["truncated-json", "non-ascii-json", "non-ascii-matrix"],
)
def test_certify_names_an_unreadable_file(tmp_path, name, data):
    mat = tmp_path / "w.txt"
    run_cli("gen", "--kind", "walsh", "--n", "4", "--M", "16",
            "--output", str(mat))
    bad = tmp_path / name  # w.txt overwrites the matrix itself
    bad.write_bytes(data)
    res = run_cli("certify", "--input", str(mat), "--subset", str(tmp_path / "cert.json"),
                  "--epsilon", "0.5")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {bad}: ")
    assert "Traceback" not in res.stderr


def test_certify_rejects_malformed_matrix(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 0\n")
    res = run_cli("certify", "--input", str(bad), "--subset", "1",
                  "--epsilon", "0.5")
    assert res.returncode == 1


def test_certify_rejects_underscore_digit_groups(tmp_path):
    # float() reads 0.707_1067811865476 as 0.7071067811865476, which would
    # make this a valid 1x2 orthonormal row
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n0.7071067811865476 0.707_1067811865476\n")
    res = run_cli("certify", "--input", str(bad), "--subset", "1,2",
                  "--epsilon", "0.5")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "'_' is not allowed" in res.stderr


@pytest.mark.parametrize("subset", ["1_0", "1,1_0", "\u0661,\u0662,\u0663"])
def test_certify_rejects_underscore_digit_groups_in_inline_subset(tmp_path, subset):
    # int() reads 1_0 as 10, a valid column of this 4x16 matrix, and the
    # Arabic-Indic digits 1,2,3 as 1, 2 and 3
    mat = tmp_path / "w.txt"
    run_cli("gen", "--kind", "walsh", "--n", "4", "--M", "16",
            "--output", str(mat))
    res = run_cli("certify", "--input", str(mat), "--subset", subset,
                  "--epsilon", "5")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: cannot parse subset")


def test_study_rejects_underscore_digit_groups_in_n_list(tmp_path):
    res = run_cli("study", "--kind", "walsh", "--n-list", "8,1_6", "--m-factor",
                  "16", "--epsilon", "0.5", "--trials", "1",
                  "--output", str(tmp_path / "s.csv"))
    assert res.returncode == 2
    assert "not an integer list: '8,1_6'" in res.stderr
    assert not (tmp_path / "s.csv").exists()


def test_certify_deeply_nested_subset_file_is_an_error_line(tmp_path):
    # json recurses once per bracket, so 200,000 of them pass Python's
    # recursion limit
    mat = tmp_path / "w.txt"
    run_cli("gen", "--kind", "walsh", "--n", "4", "--M", "16",
            "--output", str(mat))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="ascii")
    res = run_cli("certify", "--input", str(mat), "--subset", str(deep),
                  "--epsilon", "0.5")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {deep}: ")
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


def test_every_numeric_flag_rejects_what_the_file_formats_reject():
    # int() and float() read other scripts' digits and the digit group 1_0
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    typed = [action for sub in commands.choices.values() for action in sub._actions
             if action.type is not None]
    assert len(typed) == 17
    for action in typed:
        for text in ("1_0", "\u0661\u0660", "\u0660.\u0665", "1\u20032"):
            with pytest.raises((ValueError, argparse.ArgumentTypeError)):
                action.type(text)


@pytest.mark.parametrize("argv, message", [
    (["select", "--input", "w.txt", "--output", "c.json", "--epsilon", "0.5",
      "--seed", "1_0"], "argument --seed: invalid int value: '1_0'"),
    (["select", "--input", "w.txt", "--output", "c.json", "--epsilon", "\u0660.\u0665",
      "--seed", "\u0661\u0660"], "argument --epsilon: invalid float value: '\u0660.\u0665'"),
    (["study", "--kind", "walsh", "--n-list", "\u0668,16", "--m-factor", "16",
      "--epsilon", "0.5", "--output", "s.csv"],
     "argument --n-list: not an integer list: '\u0668,16'"),
    (["verify", "--suite", "sudakov", "--trials", "\u0662"],
     "argument --trials: invalid int value: '\u0662'"),
], ids=["seed-digit-group", "arabic-indic-digits", "n-list", "positive-int"])
def test_non_ascii_or_grouped_numbers_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                      argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: {message}\n")
    assert not any(tmp_path.iterdir())


_NUMBER_TEXTS = st.one_of(
    st.integers().map(str),
    st.floats().map(str),
    st.text(alphabet=" ,+-.0123456789_eEinfatyx\u0660\u0665\u00a0\u2003", max_size=8),
    st.text(max_size=4),
)


def _outcome(parse, text):
    try:
        return repr(parse(text))  # repr tells -0.0 from 0.0 and nan from itself
    except (ValueError, argparse.ArgumentTypeError):
        return "rejected"


@settings(max_examples=500, deadline=None)
@given(text=_NUMBER_TEXTS)
def test_numeric_flag_types_read_plain_ascii_like_int_and_float(text):
    def builtin_list(t):
        return [int(tok) for tok in t.replace(",", " ").split()]

    plain = text.isascii() and "_" not in text
    for ours, builtin in ((cli._int, int), (cli._float, float),
                          (cli._int_list, builtin_list)):
        want = _outcome(builtin, text) if plain else "rejected"
        assert _outcome(ours, text) == want


@pytest.mark.parametrize("flag", [("--epsilon", "1e-200"), ("--kappa", "1e308")])
def test_select_floor_beyond_the_float_range_certifies_the_full_set(
        tmp_path, monkeypatch, capsys, flag):
    # epsilon^2 underflows to 0, or kappa (t/epsilon)^2 n ln n overflows: the
    # floor is +inf, so the cascade makes no halving
    monkeypatch.chdir(tmp_path)
    write_matrix_text("w.txt", gen_walsh(4, 16).mat)
    # argparse keeps the last --epsilon
    assert main(["select", "--input", "w.txt", "--epsilon", "0.5", "--output", "c.json",
                 *flag]) == 0
    assert capsys.readouterr() == ("|I|=16 eps=0\n", "")


def test_study_floor_beyond_the_float_range_keeps_every_column(tmp_path, capsys):
    out = tmp_path / "study.csv"
    assert main(["study", "--kind", "walsh", "--n-list", "4", "--m-factor", "4",
                 "--epsilon", "1e-170", "--trials", "1", "--output", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith("4,16,0,16,0,0,0,")
    assert json.loads(capsys.readouterr().out)["per_n"][0]["median_final_size"] == 16.0


def test_select_rejects_non_orthonormal_matrix(tmp_path):
    skewed = tmp_path / "skewed.txt"
    skewed.write_text("2 3\n1 0 0\n1 1 0\n")
    res = run_cli("select", "--input", str(skewed), "--epsilon", "0.5",
                  "--output", str(tmp_path / "c.json"))
    assert res.returncode == 1
    assert "orthonormal" in res.stderr


def test_study_csv_shape(tmp_path):
    csv_path = tmp_path / "study.csv"
    res = run_cli("study", "--kind", "walsh", "--n-list", "8", "--m-factor",
                  "16", "--epsilon", "0.5", "--trials", "1", "--seed", "0",
                  "--output", str(csv_path))
    assert res.returncode == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,M,trial,final_size,epsilon_achieved,steps,total_retries,ratio"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "8" and fields[1] == "128" and fields[2] == "0"
    assert float(fields[7]) > 0.0
    summary = json.loads(res.stdout)
    assert summary["per_n"][0]["n"] == 8
    assert summary["median_ratio_spread"] >= 1.0


def test_study_csv_columns_are_study_row_fields():
    names = [f.name for f in fields(StudyRow)]
    assert CSV_HEADER.split(",") == ["M" if c == "m" else c for c in names]
    row = StudyRow(n=8, m=128, trial=3, final_size=40, epsilon_achieved=0.1,
                   steps=2, total_retries=7, ratio=1 / 3)
    assert study_rows_to_csv([row]) == (
        CSV_HEADER + "\n8,128,3,40,0.10000000000000001,2,7,0.33333333333333331\n"
    )


def test_study_api_matches_cli(tmp_path):
    cfg = StudyConfig(kind="walsh", n_list=(8,), m_factor=16, epsilon=0.5,
                      trials=2, seed=3)
    rows = run_study(cfg)
    assert len(rows) == 2
    for row in rows:
        assert row.epsilon_achieved <= 0.5
        assert row.ratio == row.final_size / (8 * math.log(8))
    summary = study_summary(cfg, rows)
    assert set(summary) >= {"per_n", "median_ratio_min", "median_ratio_max",
                            "median_ratio_spread"}


def test_verify_suites_pass(tmp_path):
    res = run_cli("verify", "--suite", "quasimetric", "--trials", "5000",
                  "--seed", "1")
    assert res.returncode == 0
    lines = [json.loads(ln) for ln in res.stdout.splitlines()]
    assert all(ln["pass"] for ln in lines)
    assert any(ln["check"].startswith("quasi_triangle") for ln in lines)

    res = run_cli("verify", "--suite", "process", "--trials", "20", "--seed", "1")
    assert res.returncode == 0
    lines = [json.loads(ln) for ln in res.stdout.splitlines()]
    fixture = [ln for ln in lines if ln["check"] == "process_fixture_span_e1"][0]
    assert fixture["mean"] == 1.0

    res = run_cli("verify", "--suite", "sudakov", "--trials", "2000", "--seed", "1")
    assert res.returncode == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_pass_is_max_ratio_within_threshold(capsys, seed):
    code = main(["verify", "--suite", "all", "--seed", str(seed)])
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    props = [ln for ln in lines if "pass" in ln]
    assert len(props) == 12
    for ln in props:
        assert ln["pass"] == (ln["max_ratio"] <= ln["threshold"]), ln
    assert (code == 0) == all(ln["pass"] for ln in props)


def test_sudakov_threshold_splits_alpha_over_two_two_sided_tests(capsys):
    # inv_cdf(1 - 1e-6/4); seed 904337711's weighted gap of 3.068 failed the
    # old 3-sigma threshold
    assert main(["verify", "--suite", "sudakov", "--seed", "904337711"]) == 0
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert [ln["threshold"] for ln in lines] == [5.0263128360298648] * 2 + [0.0]
    assert 3.0 < lines[1]["max_ratio"] < 3.1


def test_sudakov_suite_seeds_two_passes_of_trials(monkeypatch, capsys):
    # the inf-norm pass runs with zero weights and also gives the
    # zero-weights line, so no third pass is seeded
    seeded = []

    def counted(seed, count):
        for rng in trial_rngs(seed, count):
            seeded.append(seed)
            yield rng

    monkeypatch.setattr(processes, "trial_rngs", counted)
    main(["verify", "--suite", "sudakov", "--trials", "50"])
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert len(seeded) == 100


def _scaled_means(a, weights, trials, seed):
    mean_inf, mean_w = gaussian_sup_estimates(a, weights, trials, seed)
    return 1.1 * mean_inf, 1.1 * mean_w


def _unprojected(a, weights, trials, seed):
    return gaussian_sup_estimates(OrthoRowMatrix(np.eye(a.m)), weights, trials, seed)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("defect", [_scaled_means, _unprojected],
                         ids=["means-scaled-1.1", "projection-skipped"])
def test_sudakov_suite_catches_planted_defects(monkeypatch, capsys, defect, seed):
    monkeypatch.setattr(cli, "gaussian_sup_estimates", defect)
    assert main(["verify", "--suite", "sudakov", "--seed", str(seed)]) == 1
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert not lines[0]["pass"]


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_non_positive_trials(trials):
    res = run_cli("verify", "--suite", "sudakov", "--trials", trials)
    assert res.returncode == 2
    assert "not a positive integer" in res.stderr
    assert "Traceback" not in res.stderr


def test_verify_one_trial_is_a_usage_error_only_for_the_process_suite():
    for suite in ("process", "all"):
        res = run_cli("verify", "--suite", suite, "--trials", "1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "the process suite needs at least 2" in res.stderr
    for suite in ("sudakov", "quasimetric"):
        res = run_cli("verify", "--suite", suite, "--trials", "1")
        assert res.returncode == 0
        assert all(json.loads(ln)["samples"] == 1 for ln in res.stdout.splitlines())


def test_cli_outputs_are_byte_identical(tmp_path):
    mat = tmp_path / "w.txt"
    run_cli("gen", "--kind", "walsh", "--n", "8", "--M", "64",
            "--output", str(mat))
    outs = []
    for tag in ("one", "two"):
        cert = tmp_path / f"{tag}.json"
        res = run_cli("select", "--input", str(mat), "--epsilon", "0.6",
                      "--seed", "11", "--output", str(cert))
        outs.append((res.stdout, cert.read_bytes()))
    assert outs[0] == outs[1]


def test_study_deterministic_across_runs(tmp_path):
    blobs = []
    for run in range(3):
        csv_path = tmp_path / f"study_{run}.csv"
        res = run_cli("study", "--kind", "walsh", "--n-list", "8,16",
                      "--m-factor", "8", "--epsilon", "0.5", "--trials", "3",
                      "--seed", "5", "--output", str(csv_path))
        assert res.returncode == 0
        blobs.append((res.stdout, csv_path.read_bytes()))
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_certify_reads_the_matrix_from_a_pipe(tmp_path):
    mat = tmp_path / "w.txt"
    run_cli("gen", "--kind", "walsh", "--n", "8", "--M", "64", "--output", str(mat))
    args = ["certify", "--subset", ",".join(map(str, range(1, 33))), "--epsilon", "0.5"]
    from_file = run_cli(*args, "--input", str(mat))
    from_pipe = subprocess.run(CMD + args + ["--input", "/dev/stdin"],
                               input=mat.read_text(), capture_output=True, text=True)
    assert from_file.stdout.startswith('{"n": 8, "M": 64')
    assert (from_pipe.returncode, from_pipe.stdout, from_pipe.stderr) == (
        from_file.returncode, from_file.stdout, from_file.stderr)


def test_certify_reads_plain_and_crlf_tab_files_alike(tmp_path):
    # plain files take numpy's C parser, CRLF-and-tab files the row-by-row
    # reader: both readers must give the same matrix, and so the same bytes
    plain, crlf_tab, cert = (tmp_path / name for name in
                             ("trig.txt", "trig_crlf_tab.txt", "trig_cert.json"))
    assert run_cli("gen", "--kind", "trig", "--n", "32", "--M", "4096",
                   "--output", str(plain)).returncode == 0
    assert run_cli("select", "--input", str(plain), "--epsilon", "0.5",
                   "--output", str(cert)).returncode == 0
    crlf_tab.write_bytes(plain.read_bytes().replace(b" ", b"\t").replace(b"\n", b"\r\n"))
    outs = [run_cli("certify", "--input", str(path), "--subset", str(cert),
                    "--epsilon", "0.5") for path in (plain, crlf_tab)]
    assert [res.returncode for res in outs] == [0, 0]
    assert outs[0].stdout.startswith('{"n": 32, "M": 4096')
    assert outs[0].stdout == outs[1].stdout


def test_select_digit_group_seed_exits_2_before_writing(tmp_path):
    mat, out = tmp_path / "walsh.txt", tmp_path / "seed.json"
    write_matrix_text(mat, gen_walsh(16, 256).mat)
    res = run_cli("select", "--input", str(mat), "--epsilon", "0.5", "--seed", "1_0",
                  "--output", str(out))
    assert res.returncode == 2
    assert "argument --seed: invalid int value: '1_0'" in res.stderr
    assert not out.exists()


def test_exit_codes_and_buffered_output_survive_the_hard_exit(tmp_path):
    # unbuffered, every print reaches the file before main returns; buffered,
    # run() must flush before os._exit drops the buffer
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    out = tmp_path / "verify.out"
    with open(out, "w") as fh:
        res = subprocess.run(CMD + ["verify", "--suite", "all", "--seed", "0"],
                             stdout=fh, stderr=subprocess.PIPE, text=True, env=env)
    assert (res.returncode, res.stderr) == (0, "")
    lines = out.read_text().splitlines()
    assert len(lines) == 16 and json.loads(lines[-1])["check"] == "quasi_ball_convexity"

    mat = tmp_path / "w.txt"
    run_cli("gen", "--kind", "walsh", "--n", "4", "--M", "16", "--output", str(mat))
    miss = subprocess.run(CMD + ["certify", "--input", str(mat), "--subset", "1,2,3",
                                 "--epsilon", "0.1"],
                          capture_output=True, text=True, env=env)
    assert miss.returncode == 1
    assert json.loads(miss.stdout)["epsilon_achieved"] > 0.1
    usage = subprocess.run(CMD + ["certify", "--input", str(mat)],
                           capture_output=True, text=True, env=env)
    assert usage.returncode == 2
    assert "the following arguments are required: --subset" in usage.stderr


def test_run_falls_back_to_a_normal_exit_when_a_flush_fails(monkeypatch):
    exits = []
    monkeypatch.setattr(cli, "main", lambda: 3)
    monkeypatch.setattr(os, "_exit", exits.append)
    cli.run()
    assert exits == [3]

    class ClosedPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 3 and exits == [3]
