import argparse
import io
import json
import math
import os
import stat
import statistics
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden.record import run_cli_process, run_main
from ortho_subselect import (
    OrthoRowMatrix,
    cli,
    gaussian_sup_estimates,
    gen_trig,
    gen_walsh,
    processes,
    write_matrix_text,
)
from ortho_subselect.cli import (
    CSV_HEADER,
    StudyRow,
    main,
    study_rows_to_csv,
)
from ortho_subselect.rng import trial_rngs


@pytest.fixture
def walsh16(tmp_path):
    """``w.txt``: the Walsh 4 x 16 matrix, the bytes ``gen --kind walsh`` writes."""
    mat = tmp_path / "w.txt"
    write_matrix_text(mat, gen_walsh(4, 16).mat)
    return mat


def test_gen_trig_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the trig rows are only normalized; a BLAS QR would round per thread
    # count, which OpenBLAS reads once per process, when numpy loads
    def run_gen_trig(out, threads):
        code, stdout, err = run_cli_process(
            ["gen", "--kind", "trig", "--n", "32", "--M", "16384", "--output", out],
            tmp_path, env={"OPENBLAS_NUM_THREADS": threads})
        assert code == 0, err
        return stdout

    assert run_gen_trig("one.txt", "1") == run_gen_trig("two.txt", "2")
    assert (tmp_path / "one.txt").read_bytes() == (tmp_path / "two.txt").read_bytes()


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
    got, _, err = run_main(["gen", "--kind", kind, "--n", "2", "--M", "4", "--seed", "-1",
                            "--output", "m.txt"], tmp_path)
    assert got == code
    assert err == ("error: seed must be >= 0, got -1\n" if code else "")


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
    assert run_main(["gen", "--kind", "nope", "--n", "1", "--M", "2",
                     "--output", "x.txt"], tmp_path)[0] == 2
    assert run_main(["frobnicate"], tmp_path)[0] == 2


@pytest.mark.parametrize("same", [("--output", "--trace"), ("--input", "--output"),
                                  ("--input", "--trace")],
                         ids=["output-trace", "input-output", "input-trace"])
def test_select_rejects_two_flags_naming_one_file(tmp_path, walsh16, same):
    # a shared path would lose the certificate to the trace, or the input
    # matrix to either; the second flag spells the path differently
    before = walsh16.read_bytes()
    paths = {"--input": walsh16, "--output": tmp_path / "c.json", "--trace": tmp_path / "t.json"}
    shared = paths[same[0]]
    paths[same[1]] = f"{shared.parent}/./{shared.name}"
    code, _, err = run_main(["select", "--epsilon", "0.5",
                             *[arg for item in paths.items() for arg in map(str, item)]],
                            tmp_path)
    assert code == 2
    assert f"argument {same[1]}: same file as {same[0]}" in err
    assert walsh16.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["w.txt"]


def test_select_input_in_a_symlink_loop_is_an_error_line(tmp_path):
    # the same-file check resolves the paths without raising on the loop,
    # and reading the input reports it
    (tmp_path / "a").symlink_to(tmp_path / "b")
    (tmp_path / "b").symlink_to(tmp_path / "a")
    code, _, err = run_main(["select", "--input", str(tmp_path / "a"), "--epsilon", "0.5",
                             "--output", str(tmp_path / "c.json")], tmp_path)
    assert code == 1
    assert err.startswith("error: ") and "symbolic links" in err


@pytest.mark.parametrize("flag, path, message", [
    ("--output", "", "[Errno 21] Is a directory: '.'"),
    ("--trace", "", "[Errno 21] Is a directory: '.'"),
    ("--trace", "nodir/t.json", "[Errno 2] No such file or directory: 'nodir/t.json'"),
], ids=["empty-output", "empty-trace", "trace-in-missing-directory"])
def test_select_unwritable_output_or_trace_is_an_error_line(tmp_path, walsh16, flag, path,
                                                            message):
    # Path("") is Path("."), the working directory: an empty path fails like
    # any other path that cannot be written, and is never skipped. select
    # writes all of its outputs or none, so c.json keeps the bytes it had
    (tmp_path / "c.json").write_text("old\n")
    paths = {"--output": "c.json", flag: path}
    argv = ["select", "--input", "w.txt", "--epsilon", "0.5", *sum(paths.items(), ())]
    assert run_main(argv, tmp_path) == (1, "", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "w.txt"]
    assert (tmp_path / "c.json").read_text() == "old\n"


def test_select_keeps_each_output_file_type_and_mode(tmp_path, walsh16):
    # a pipe cannot be replaced, so it is written in place and stays a pipe;
    # an existing certificate keeps its mode; a temporary file a killed run
    # left under this pid is skipped and kept
    os.mkfifo(tmp_path / "t.fifo")
    (tmp_path / "c.json").write_text("old\n")
    os.chmod(tmp_path / "c.json", 0o600)
    left = tmp_path / f".select-{os.getpid()}-0.tmp"
    left.write_text("left\n")
    select = ["select", "--input", "w.txt", "--epsilon", "0.5", "--output"]
    reader = os.open(tmp_path / "t.fifo", os.O_RDONLY | os.O_NONBLOCK)
    try:
        got = run_main([*select, "c.json", "--trace", "t.fifo"], tmp_path)
        trace = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
    finally:
        os.close(reader)
    assert got == run_main([*select, "c2.json", "--trace", "t.json"], tmp_path)
    assert got[2] == ""
    assert trace == (tmp_path / "t.json").read_bytes()
    assert (tmp_path / "c.json").read_bytes() == (tmp_path / "c2.json").read_bytes()
    assert stat.S_ISFIFO(os.stat(tmp_path / "t.fifo").st_mode)
    assert stat.S_IMODE(os.stat(tmp_path / "c.json").st_mode) == 0o600
    assert left.read_text() == "left\n"


def test_select_loose_budget_and_min_size(tmp_path):
    write_matrix_text(tmp_path / "t.txt", gen_trig(3, 11).mat)
    assert run_main(["select", "--input", "t.txt", "--epsilon", "0.999",
                     "--output", "c1.json"], tmp_path)[0] == 0
    assert run_main(["select", "--input", "t.txt", "--epsilon", "0.5",
                     "--min-size", "11", "--output", "c2.json"], tmp_path)[0] == 0
    cert = json.loads((tmp_path / "c2.json").read_text())
    assert cert["epsilon_achieved"] <= 1e-10
    assert len(cert["subset"]) == 11


def test_certify_inline_subset_failure_path(tmp_path):
    mat = tmp_path / "skew.txt"
    a = math.sqrt(0.8)
    b = math.sqrt(0.2)
    mat.write_text(f"1 2\n{a:.17g} {b:.17g}\n")

    def run_certify(subset, epsilon):
        return run_main(["certify", "--input", str(mat), "--subset", subset,
                         "--epsilon", epsilon], tmp_path)

    code, out, _ = run_certify("1", "0.5")
    assert code == 1  # achieved 0.6 > 0.5
    cert = json.loads(out)
    assert abs(cert["epsilon_achieved"] - 0.6) <= 1e-12
    assert run_certify("1,2", "1e-9")[0] == 0
    code, _, err = run_certify("3", "0.5")
    assert code == 1
    assert "error" in err
    dup = tmp_path / "dup.json"
    dup.write_text("[5, 3, 3]")
    for spec in ("5,3,3", str(dup)):
        code, _, err = run_certify(spec, "0.5")
        assert code == 1
        assert err.startswith("error: duplicate index 3"), err


@pytest.mark.parametrize("epsilon", ["nan", "-1", "inf", "-inf"])
def test_certify_rejects_non_finite_or_negative_epsilon(tmp_path, walsh16, epsilon):
    # the subset does not parse, so only a check made before it is read passes
    code, out, err = run_main(["certify", "--input", str(walsh16), "--subset", "x",
                               f"--epsilon={epsilon}"], tmp_path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: epsilon must be finite and >= 0")
    assert "Traceback" not in err


def test_certify_empty_subset_is_not_the_current_directory(tmp_path, walsh16):
    # Path("") is Path("."), which exists; only "." itself names the directory
    argv = ["certify", "--input", "w.txt", "--epsilon", "0.5", "--subset"]
    assert run_main(argv + [""], tmp_path) == (1, "", "error: empty subset specification\n")
    code, _, err = run_main(argv + ["."], tmp_path)
    assert code == 1
    assert "Is a directory: '.'" in err


def test_certify_long_inline_subset_matches_json_file(tmp_path):
    # 300 indices are over 1,000 bytes, longer than any file name may be
    mat = tmp_path / "w.txt"
    write_matrix_text(mat, gen_walsh(16, 1024).mat)
    subset = list(range(1, 601, 2))
    listed = tmp_path / "subset.json"
    listed.write_text(json.dumps(subset))
    inline = ",".join(map(str, subset))
    assert len(inline) > 255
    got, want = (run_main(["certify", "--input", str(mat), "--subset", spec,
                           "--epsilon", "0.5"], tmp_path) for spec in (inline, str(listed)))
    assert got[2] == want[2] == ""
    assert got == want
    assert json.loads(got[1])["subset"] == subset


def test_certify_accepts_zero_epsilon(tmp_path, walsh16):
    full = ",".join(str(j) for j in range(1, 17))
    code, out, _ = run_main(["certify", "--input", str(walsh16), "--subset", full,
                             "--epsilon", "0"], tmp_path)
    assert code == 0
    assert json.loads(out)["epsilon_achieved"] <= 1e-12


@pytest.mark.parametrize(
    "subset", [[1.5, 2.9, 3, 4, 5, 6, 7, 8], [True, 2, 3, 4, 5, 6, 7, 8]]
)
def test_certify_rejects_non_integer_json_subset(tmp_path, walsh16, subset):
    # truncated to 1..8 these would certify: rows of H8, deviation 0
    spec = tmp_path / "cert.json"
    spec.write_text(json.dumps({"subset": subset}))
    code, out, err = run_main(["certify", "--input", str(walsh16), "--subset", str(spec),
                               "--epsilon", "0.5"], tmp_path)
    assert code == 1
    assert out == ""
    assert "subset must be a list of integers" in err


def test_study_rejects_nan_kappa(tmp_path):
    code, _, err = run_main(["study", "--kind", "walsh", "--n-list", "8", "--m-factor",
                             "16", "--epsilon", "0.5", "--trials", "1", "--kappa", "nan",
                             "--output", str(tmp_path / "s.csv")], tmp_path)
    assert code == 1
    assert err.startswith("error: kappa")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, data",
    [("cert.json", b'{"subset": [1, 2'), ("cert.json", b'{"subset": [1, 2]}\xc3\xa9'),
     ("w.txt", b"1 1\n1\xc3\xa9\n")],
    ids=["truncated-json", "non-ascii-json", "non-ascii-matrix"],
)
def test_certify_names_an_unreadable_file(tmp_path, walsh16, name, data):
    bad = tmp_path / name  # w.txt overwrites the matrix itself
    bad.write_bytes(data)
    code, out, err = run_main(["certify", "--input", str(walsh16), "--subset",
                               str(tmp_path / "cert.json"), "--epsilon", "0.5"], tmp_path)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {bad}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("subset", ["1_0", "1,1_0", "\u0661,\u0662,\u0663"])
def test_certify_rejects_underscore_digit_groups_in_inline_subset(tmp_path, walsh16, subset):
    # int() reads 1_0 as 10, a valid column of this 4x16 matrix, and the
    # Arabic-Indic digits 1,2,3 as 1, 2 and 3
    code, out, err = run_main(["certify", "--input", str(walsh16), "--subset", subset,
                               "--epsilon", "5"], tmp_path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot parse subset")


def test_certify_deeply_nested_subset_file_is_an_error_line(tmp_path, walsh16):
    # json recurses once per bracket, so 200,000 of them pass Python's
    # recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="ascii")
    code, out, err = run_main(["certify", "--input", str(walsh16), "--subset", str(deep),
                               "--epsilon", "0.5"], tmp_path)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {deep}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


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
    (["select", "--input", "w.txt", "--output", "c.json", "--epsilon", "\u0660.\u0665",
      "--seed", "\u0661\u0660"], "argument --epsilon: invalid float value: '\u0660.\u0665'"),
    (["study", "--kind", "walsh", "--n-list", "\u0668,16", "--m-factor", "16",
      "--epsilon", "0.5", "--output", "s.csv"],
     "argument --n-list: not an integer list: '\u0668,16'"),
    (["verify", "--suite", "sudakov", "--trials", "\u0662"],
     "argument --trials: invalid int value: '\u0662'"),
], ids=["arabic-indic-digits", "n-list", "positive-int"])
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
    code, _, err = run_main(["select", "--input", str(skewed), "--epsilon", "0.5",
                             "--output", str(tmp_path / "c.json")], tmp_path)
    assert code == 1
    assert "orthonormal" in err


def test_study_csv_columns_are_study_row_fields():
    names = [f.name for f in fields(StudyRow)]
    assert CSV_HEADER.split(",") == ["M" if c == "m" else c for c in names]
    row = StudyRow(n=8, m=128, trial=3, final_size=40, epsilon_achieved=0.1,
                   steps=2, total_retries=7, ratio=1 / 3)
    assert study_rows_to_csv([row]) == (
        CSV_HEADER + "\n8,128,3,40,0.10000000000000001,2,7,0.33333333333333331\n"
    )


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
def test_verify_rejects_non_positive_trials(tmp_path, trials):
    code, _, err = run_main(["verify", "--suite", "sudakov", "--trials", trials], tmp_path)
    assert code == 2
    assert "not a positive integer" in err
    assert "Traceback" not in err


def test_verify_one_trial_is_a_usage_error_only_for_the_process_suite(tmp_path):
    for suite in ("process", "all"):
        code, out, err = run_main(["verify", "--suite", suite, "--trials", "1"], tmp_path)
        assert code == 2
        assert out == ""
        assert "the process suite needs at least 2" in err
    for suite in ("sudakov", "quasimetric"):
        code, out, _ = run_main(["verify", "--suite", suite, "--trials", "1"], tmp_path)
        assert code == 0
        assert all(json.loads(ln)["samples"] == 1 for ln in out.splitlines())


def test_cli_outputs_are_byte_identical(tmp_path):
    """Repeated ``select`` calls in one process carry no state between them;
    criterion 10 checks the same run across processes."""
    mat = tmp_path / "w.txt"
    write_matrix_text(mat, gen_walsh(8, 64).mat)
    outs = []
    for tag in ("one", "two"):
        cert = tmp_path / f"{tag}.json"
        code, out, _ = run_main(["select", "--input", str(mat), "--epsilon", "0.6",
                                 "--seed", "11", "--output", str(cert)], tmp_path)
        assert code == 0
        outs.append((out, cert.read_bytes()))
    assert outs[0] == outs[1]


def test_study_deterministic_across_runs(tmp_path):
    """Repeated ``study`` calls in one process give the same bytes;
    criterion 10 checks the same run across processes."""
    blobs = []
    for run in range(3):
        csv_path = tmp_path / f"study_{run}.csv"
        code, out, _ = run_main(["study", "--kind", "walsh", "--n-list", "8,16",
                                 "--m-factor", "8", "--epsilon", "0.5", "--trials", "3",
                                 "--seed", "5", "--output", str(csv_path)], tmp_path)
        assert code == 0
        blobs.append((out, csv_path.read_bytes()))
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_certify_reads_the_matrix_from_a_pipe(tmp_path):
    mat = tmp_path / "w.txt"
    write_matrix_text(mat, gen_walsh(8, 64).mat)
    args = ["certify", "--subset", ",".join(map(str, range(1, 33))), "--epsilon", "0.5"]
    from_file = run_main(args + ["--input", str(mat)], tmp_path)
    from_pipe = run_cli_process(args + ["--input", "/dev/stdin"], tmp_path,
                                stdin=mat.read_text())
    assert from_file[1].startswith('{"n": 8, "M": 64')
    assert from_pipe == from_file


def test_certify_reads_plain_and_crlf_tab_files_alike(tmp_path):
    # plain files take numpy's C parser, CRLF-and-tab files the row-by-row
    # reader: both readers must give the same matrix, and so the same bytes
    plain, crlf_tab, cert = (tmp_path / name for name in
                             ("trig.txt", "trig_crlf_tab.txt", "trig_cert.json"))
    write_matrix_text(plain, gen_trig(32, 4096).mat)
    assert run_main(["select", "--input", str(plain), "--epsilon", "0.5",
                     "--output", str(cert)], tmp_path)[0] == 0
    crlf_tab.write_bytes(plain.read_bytes().replace(b" ", b"\t").replace(b"\n", b"\r\n"))
    outs = [run_cli_process(["certify", "--input", str(path), "--subset", str(cert),
                             "--epsilon", "0.5"], tmp_path) for path in (plain, crlf_tab)]
    assert [code for code, _, _ in outs] == [0, 0]
    assert outs[0][1].startswith('{"n": 32, "M": 4096')
    assert outs[0][1] == outs[1][1]


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
