import argparse
import io
import json
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
