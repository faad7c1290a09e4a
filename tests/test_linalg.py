import functools
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ortho_subselect import (
    IsometryCertificate,
    OrthoRowMatrix,
    OrthoSubselectError,
    orthonormalize_rows,
    read_matrix_text,
    write_matrix_text,
)
from ortho_subselect import generators, linalg
from ortho_subselect.cli import parse_subset_spec
from ortho_subselect.generators import gen_trig
from ortho_subselect.linalg import ORTHO_TOL
from ortho_subselect.selection import certify


def _mgs_rows(m, tol: float = 1e-10) -> np.ndarray:
    """Reference oracle: modified Gram-Schmidt with one re-orthogonalization
    pass per row ("twice is enough"), raising at the first row whose
    residual norm is ``tol`` or below."""
    a = np.array(m, dtype=np.float64)
    for i in range(a.shape[0]):
        for _ in range(2):
            for j in range(i):
                a[i] -= (a[j] @ a[i]) * a[j]
        norm = float(np.linalg.norm(a[i]))
        if norm <= tol:
            raise OrthoSubselectError(
                f"row {i + 1} is linearly dependent (residual norm {norm:.3e})"
            )
        a[i] /= norm
    return a


def _fstring_write(path, m) -> None:
    """Reference oracle: the per-value f-string matrix writer."""
    a = np.asarray(m, dtype=np.float64)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _float_loop_read(path) -> np.ndarray:
    """Reference oracle: the body of a well-formed matrix file parsed one
    value at a time with float()."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    return np.asarray([[float(f) for f in ln.split()] for ln in lines[1:]])


def test_orthonormalize_identity_is_fixed_point():
    a = orthonormalize_rows(np.eye(2))
    np.testing.assert_allclose(a.mat, np.eye(2), atol=1e-15)


def test_orthonormalize_scaling_normalizes():
    a = orthonormalize_rows([[2.0, 0.0], [0.0, 3.0]])
    np.testing.assert_allclose(a.mat, np.eye(2), atol=1e-15)


def test_orthonormalize_random_gaussian():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 16))
    a = orthonormalize_rows(m)
    assert np.max(np.abs(a.mat @ a.mat.T - np.eye(4))) <= 1e-10
    # same row space: original rows are in the span of the output rows
    coeffs = m @ a.mat.T
    np.testing.assert_allclose(coeffs @ a.mat, m, atol=1e-10)


@pytest.mark.parametrize(
    "kind,n,m", [("trig", 8, 100), ("trig", 32, 16384), ("gauss", 4, 16),
                 ("gauss", 16, 64)]
)
def test_orthonormalize_matches_mgs_oracle(kind, n, m):
    if kind == "trig":
        # orthogonal rows of distinct norms, which orthonormalizing only rescales
        rows = gen_trig(n, m).mat * np.arange(1.0, n + 1)[:, None]
    else:
        rows = np.random.default_rng(n).standard_normal((n, m))
    got = orthonormalize_rows(rows).mat
    np.testing.assert_allclose(got, _mgs_rows(rows), rtol=0.0, atol=1e-12)
    if kind == "trig":
        np.testing.assert_allclose(got, gen_trig(n, m).mat, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "rows", [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0, 0.0], [1.0, 1e-13, 0.0]]]
)
def test_orthonormalize_and_oracle_reject_dependent_row(rows):
    with pytest.raises(OrthoSubselectError, match="row 2"):
        orthonormalize_rows(rows)
    with pytest.raises(OrthoSubselectError, match="row 2"):
        _mgs_rows(rows)


def test_orthonormalize_and_oracle_accept_small_residual():
    rows = [[1.0, 0.0, 0.0], [1.0, 1e-7, 0.0]]
    got = orthonormalize_rows(rows).mat
    np.testing.assert_allclose(got, _mgs_rows(rows), rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(np.abs(got), np.eye(2, 3), rtol=0.0, atol=1e-8)


def test_ortho_row_matrix_stores_column_major(monkeypatch, tmp_path):
    # every reader takes A by columns, so the constructor alone sets the layout
    x = np.asfortranarray(gen_trig(5, 33).mat)
    for given in (np.ascontiguousarray(x), x):
        a = OrthoRowMatrix(given)
        assert a.mat.flags.f_contiguous and np.array_equal(a.mat, x)
    assert np.shares_memory(OrthoRowMatrix(x).mat, x)
    path = tmp_path / "a.txt"
    write_matrix_text(path, x)
    assert OrthoRowMatrix(read_matrix_text(path)).mat.flags.f_contiguous

    # the generators hand the constructor a column-major array: no copy
    built = []
    post_init = OrthoRowMatrix.__post_init__

    def recording(self):
        given = self.mat
        post_init(self)
        built.append((given, self.mat))

    monkeypatch.setattr(OrthoRowMatrix, "__post_init__", recording)
    made = [
        generators.gen_walsh(4, 32),
        generators.gen_trig(5, 33),
        generators.gen_random_ortho(6, 40, seed=1),
    ]
    assert all(a.mat.flags.f_contiguous for a in made)
    assert len(built) == len(made)
    assert all(np.shares_memory(given, stored) for given, stored in built)


def test_certify_recovers_planted_spectrum():
    # A = [Q diag(sqrt c) | Q diag(sqrt(1 - c))] has orthonormal rows, and its
    # first half has the scaled Gram 2 Q diag(c) Q^T: extremes 2 min c, 2 max c
    rng = np.random.default_rng(17)
    c = np.array([0.05, 0.2, 0.35, 0.5, 0.75, 0.9])
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = OrthoRowMatrix(np.hstack([q * np.sqrt(c), q * np.sqrt(1.0 - c)]))
    cert = certify(a, range(1, 7))
    assert abs(cert.lambda_min - 2.0 * c.min()) <= 1e-8
    assert abs(cert.lambda_max - 2.0 * c.max()) <= 1e-8


def _flat_row(p: float) -> OrthoRowMatrix:
    return OrthoRowMatrix(np.array([[math.sqrt(p), math.sqrt(1.0 - p)]]))


def test_gram_full_set_is_identity():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 12))
    a = orthonormalize_rows(m)
    cert = certify(a, range(1, 13))
    assert max(1.0 - cert.lambda_min, cert.lambda_max - 1.0) <= ORTHO_TOL


def test_gram_single_column():
    cert = certify(_flat_row(0.8), (1,))
    assert abs(cert.lambda_min - 1.6) <= 1e-12  # (M/|I|) * 0.8
    assert cert.lambda_max == cert.lambda_min


def test_gram_additive_over_disjoint_subsets():
    # one row: the Gram is the scalar (|I|/M) * lambda
    rng = np.random.default_rng(3)
    a = orthonormalize_rows(rng.standard_normal((1, 20)))
    idx = rng.permutation(20) + 1

    def gram(cols):
        cert = certify(a, np.sort(cols))
        return len(cols) / a.m * cert.lambda_max

    assert abs(gram(idx[:7]) + gram(idx[7:16]) - gram(idx[:16])) <= 1e-12


def test_certify_checks_its_subset_indices(tmp_path):
    # the messages of the other checks are in tests/test_errors.py
    a = gen_trig(2, 4)
    # ints past int64 reach the range check, inline and from a JSON file
    huge = "99999999999999999999"
    (tmp_path / "huge.json").write_text(f"[1, {huge}]", encoding="ascii")
    for spec, lo, hi in ((huge, huge, huge), (str(tmp_path / "huge.json"), 1, huge),
                         (f"5,{2**63}", 5, 2**63)):
        with pytest.raises(OrthoSubselectError) as err:
            certify(a, parse_subset_spec(spec))
        assert str(err.value) == f"indices must lie in 1..4, got range [{lo}, {hi}]"
    cert = certify(a, np.array([2, 3], dtype=np.intp))
    assert cert == certify(a, (2, 3))
    assert all(type(x) is int for x in cert.subset)
    assert parse_subset_spec("3,1") == [1, 3]
    assert certify(a, sorted({3, 1})).subset == (1, 3)


@dataclass(frozen=True)
class SubsetIndex:
    """Strictly increasing 1-based column indices into a width-``m`` matrix.

    Test oracle: the validated subset type that ``certify``'s own check
    replaced, kept verbatim but for the rejection of a bool among ints.
    """

    indices: tuple[int, ...]
    m: int

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.ndim == 1 and idx.dtype.kind in "fO" and all(
            type(x) is int for x in self.indices
        ):  # ints beyond int64, which numpy holds as floats or objects
            idx = np.asarray(self.indices, dtype=object)
        elif idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise OrthoSubselectError(f"indices must be flat integers, got {idx.dtype}")
        elif idx is not self.indices and any(
            isinstance(x, (bool, np.bool_)) for x in self.indices
        ):  # the one addition: numpy reads (True, 3) as int64
            raise OrthoSubselectError("indices must be flat integers, got bool")
        bad = idx[1:] <= idx[:-1]
        if np.any(bad):
            j = int(np.argmax(bad))
            if idx[j] == idx[j + 1]:
                raise OrthoSubselectError(f"duplicate index {idx[j]}")
            raise OrthoSubselectError("indices must be strictly increasing")
        if idx.size and (idx[0] < 1 or idx[-1] > self.m):
            raise OrthoSubselectError(
                f"indices must lie in 1..{self.m}, got range "
                f"[{idx[0]}, {idx[-1]}]"
            )
        object.__setattr__(self, "indices", tuple(idx.tolist()))

    @classmethod
    def from_iterable(cls, indices, m: int) -> "SubsetIndex":
        """Sort ``indices`` and build a subset; duplicates are rejected."""
        return cls(tuple(sorted(indices)), m)

    @classmethod
    def full(cls, m: int) -> "SubsetIndex":
        return cls(np.arange(1, m + 1), m)

    def zero_based(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp) - 1

    def __len__(self) -> int:
        return len(self.indices)


def _oracle_certificate(a: OrthoRowMatrix, subset) -> IsometryCertificate:
    """certify as it was: SubsetIndex, then the nonempty check, then the
    certificate of the oracle's columns."""
    i = SubsetIndex(subset, a.m)
    if len(i) == 0:
        raise OrthoSubselectError("subset must contain at least one column index")
    lambda_min, lambda_max, eps = linalg._gram_extremes(a, i.zero_based())
    return IsometryCertificate(a.n, a.m, i.indices, lambda_min, lambda_max, eps,
                               a.coherence, a.m / len(i))


@functools.lru_cache(maxsize=None)
def _width_matrix(m: int) -> OrthoRowMatrix:
    return gen_trig(min(3, m), m)


_INT_DTYPES = {"int32": np.int32, "int64": np.int64, "uint64": np.uint64}


@st.composite
def _subset_candidates(draw, m):
    """Index sequences for a width-``m`` matrix, valid ones included."""
    near = st.integers(-2, m + 2)
    big = st.one_of(st.integers(2**63 - 2, 2**64 + 2),
                    st.integers(-(2**63) - 2, -(2**63) + 2))
    element = st.one_of(
        near,
        big,
        st.booleans(),
        st.floats(),
        near.map(float),
        st.lists(near, min_size=1, max_size=2),
    )
    shape = draw(st.sampled_from(["valid", "sorted", "ints", "mixed", "nested", "array"]))
    if shape == "array":
        dtype = _INT_DTYPES[draw(st.sampled_from(sorted(_INT_DTYPES)))]
        seq = draw(st.lists(st.integers(0 if dtype is np.uint64 else -2, m + 2),
                            max_size=6))
        return np.array(sorted(set(seq)) if draw(st.booleans()) else seq, dtype=dtype)
    if shape == "valid":
        seq = sorted(draw(st.sets(st.integers(1, m), min_size=1, max_size=m)))
    elif shape == "sorted":  # increasing, some of it out of range
        seq = sorted(draw(st.sets(st.one_of(st.integers(1, m), near, big), max_size=6)))
    elif shape == "ints":  # unsorted, duplicated, empty and out-of-range lists
        seq = draw(st.lists(st.one_of(near, st.integers(1, m)), max_size=6))
    elif shape == "mixed":
        seq = draw(st.lists(element, max_size=4))
    else:
        seq = draw(st.lists(st.lists(near, min_size=2, max_size=2), max_size=3))
    return tuple(seq) if draw(st.booleans()) else seq


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_certify_checks_subsets_like_the_subset_index_oracle(data):
    m = data.draw(st.integers(1, 64), label="m")
    a = _width_matrix(m)
    subset = data.draw(_subset_candidates(m), label="subset")
    try:
        want = _oracle_certificate(a, subset)
    except Exception as exc:  # numpy's own ValueErrors included
        with pytest.raises(Exception) as got:
            certify(a, subset)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
    else:
        got = certify(a, subset)
        assert got == want
        assert all(type(x) is int for x in got.subset)


def test_deviation_full_set_is_zero():
    rng = np.random.default_rng(4)
    a = orthonormalize_rows(rng.standard_normal((5, 17)))
    assert certify(a, range(1, 18)).epsilon_achieved <= 1e-10


def test_deviation_flat_half_is_exact():
    # 2 * (1/sqrt(2))^2 - 1 is zero up to one rounding of the square
    a = _flat_row(0.5)
    assert certify(a, (1,)).epsilon_achieved <= 1e-12


def test_deviation_single_column_value():
    a = _flat_row(0.8)
    assert abs(certify(a, (1,)).epsilon_achieved - 0.6) <= 1e-12


def test_deviation_invariant_under_column_permutation():
    rng = np.random.default_rng(6)
    a = orthonormalize_rows(rng.standard_normal((3, 10)))
    perm = rng.permutation(10)
    b = OrthoRowMatrix(a.mat[:, perm])
    subset = [1, 4, 5, 9]
    moved = sorted(int(np.where(perm == j - 1)[0][0]) + 1 for j in subset)
    dev = certify(a, subset).epsilon_achieved
    assert abs(dev - certify(b, moved).epsilon_achieved) <= 1e-12


def test_matrix_text_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 5)) * 10.0 ** rng.integers(-8, 8, size=(3, 5))
    path = tmp_path / "m.txt"
    write_matrix_text(path, m)
    back = read_matrix_text(path)
    assert np.array_equal(back, m)  # 17 significant digits are lossless


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n1 2\n3 4\n",
        "2 2\n1 2\n",
        "2 2\n1 2\n3\n",
        "2 2\n1 2\n3 x\n",
        "2 2\n1 2\n3 inf\n",
        "0 2\n",
        "2 2\n1 2\n3 4\n5 6\n",
        "2 2\n1 2\n3 4 5\n",
        "2 2\n1 2\n3 nan\n",
        # float() and int() read Python's digit-group underscores
        "1 2\n0.7071067811865476 0.707_1067811865476\n",
        "1 2_0\n" + "0 " * 19 + "1\n",
        "1_0 2\n" + "1 0\n" * 10,
        "1 1\n1\u00e9\n",  # not ASCII
    ],
)
def test_matrix_text_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(OrthoSubselectError, match=re.escape(str(path))):
        read_matrix_text(path)


def _format_cases():
    rng = np.random.default_rng(12)
    wide = rng.standard_normal((6, 50)) * 10.0 ** rng.integers(
        -300, 301, size=(6, 50)
    )
    tiny = np.array([[5e-324, -5e-324, 2.2250738585072009e-308, 1e-310],
                     [-0.0, 0.0, -1e-320, 1.7976931348623157e308]])
    return {"trig_32x16384": gen_trig(32, 16384).mat, "exp_pm300": wide,
            "subnormal_negzero": tiny}


FORMAT_CASES = _format_cases()


@pytest.mark.parametrize("case", sorted(FORMAT_CASES))
def test_write_matrix_text_matches_fstring_oracle(tmp_path, case):
    m = FORMAT_CASES[case]
    write_matrix_text(tmp_path / "new.txt", m)
    _fstring_write(tmp_path / "old.txt", m)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


@pytest.mark.parametrize("case", sorted(FORMAT_CASES))
def test_read_matrix_text_matches_float_loop_oracle(tmp_path, case):
    path = tmp_path / "m.txt"
    _fstring_write(path, FORMAT_CASES[case])
    new, old = read_matrix_text(path), _float_loop_read(path)
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()  # bitwise, so -0.0 counts


EDGE_TOKENS = [
    "1_0", "1__0", "_1", "1_000.000_1", "1e-400", "1e400", "-1e400",
    "1.7976931348623159e308", "Infinity", "-inf", "nan", "-NaN", "0x1p3",
    "0x10", "-0", "+.5", "5.", "1E5", "1e", "0000.1", "4.9e-324",
    "2.4703282292062328e-324", "9007199254740993",
]


@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_read_matrix_text_parses_tokens_like_float(tmp_path, token):
    path = tmp_path / "m.txt"
    path.write_text(f"1 2\n{token} 1\n", encoding="ascii")
    try:
        value = float(token)
    except ValueError:
        value = None
    # the format is float()'s syntax without Python's digit-group underscores
    if "_" in token:
        with pytest.raises(OrthoSubselectError, match="'_' is not allowed in numbers"):
            read_matrix_text(path)
    elif value is None:
        with pytest.raises(OrthoSubselectError, match=re.escape(f"float: {token!r}")):
            read_matrix_text(path)
    elif not math.isfinite(value):
        with pytest.raises(OrthoSubselectError, match="matrix entries must be finite"):
            read_matrix_text(path)
    else:
        got = read_matrix_text(path)
        assert got.tobytes() == _float_loop_read(path).tobytes()
        assert got[0, 0].tobytes() == np.float64(value).tobytes()


_EXTREMES = [5e-324, -5e-324, 1e-310, -0.0, 0.0, 1e300, -1e300, 1e-300, -1e-300]
_PLAIN_GAPS, _GAPS = [" ", "  "], [" ", "  ", "\t", " \x1f "]
_PLAIN_BREAKS, _BREAKS = ["\n", "\n\n", "\n  \n"], ["\n", "\n\n", "\r\n", "\r", "\t\n"]
_STRAYS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\t", "\r\n", "\n", " ", "-", "e"]


@st.composite
def _matrix_texts(draw, path):
    """A random matrix written by ``_fstring_write``, re-spaced, and on
    mixed cases with stray bytes inserted or a value dropped."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                           | st.sampled_from(_EXTREMES), min_size=n * m, max_size=n * m))
    _fstring_write(path, np.reshape(values, (n, m)))
    plain = draw(st.booleans())
    gaps, breaks = (_PLAIN_GAPS, _PLAIN_BREAKS) if plain else (_GAPS, _BREAKS)
    rows = [ln.split(" ") for ln in path.read_text().splitlines()]
    if draw(st.booleans()) and len(rows[-1]) > 1:
        rows[-1].pop()
    text = "".join(
        draw(st.sampled_from(gaps)).join(row) + draw(st.sampled_from(breaks))
        for row in rows
    )
    if not plain:
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(_STRAYS)) + text[at:]
    return text


def _assert_reads_like_the_row_loop(path, capfd):
    """read_matrix_text returns the oracle's array bitwise, or raises the
    row-by-row reader's message, and writes nothing to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            want = linalg._read_matrix_data(path, path.read_bytes())
        except OrthoSubselectError as exc:
            with pytest.raises(OrthoSubselectError) as got:
                read_matrix_text(path)
            assert str(got.value) == str(exc)
        else:
            got = read_matrix_text(path)
            oracle = _float_loop_read(path)
            assert got.shape == want.shape == oracle.shape
            assert got.tobytes() == want.tobytes() == oracle.tobytes()
    assert caught == []
    assert capfd.readouterr().err == ""


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    return tmp_path_factory.mktemp("parse_paths") / "m.txt"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_read_matrix_text_parse_paths_agree(matrix_file, capfd, data):
    matrix_file.write_bytes(data.draw(_matrix_texts(matrix_file)).encode("ascii"))
    _assert_reads_like_the_row_loop(matrix_file, capfd)


@pytest.mark.parametrize("text", [
    "1 4\n1 2\x0b3 4\n", "1 2\n1\t2\n", "1 2\r\n1 2\r\n",
    "1 2\n", "1 2", "1 2\n  \n", "0 1\n\n", "\n1 2\n1 2\n", "1 2\n1e999 1\n",
    "1 2\n- 1\n", "1 2 3\n1 2\n", "1.0 2\n1 2\n", "2 1\n1\n",
])
def test_read_matrix_text_parse_paths_agree_on_edge_files(tmp_path, capfd, text):
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode("ascii"))
    _assert_reads_like_the_row_loop(path, capfd)


def test_read_matrix_text_form_feed_splits_a_row(tmp_path):
    # np.loadtxt alone would read one row of four
    path = tmp_path / "m.txt"
    path.write_bytes(b"1 4\n1 2\x0c3 4\n")
    with pytest.raises(OrthoSubselectError, match="expected 1 data rows, found 2"):
        read_matrix_text(path)


def test_read_matrix_text_plain_file_skips_the_row_loop(monkeypatch, tmp_path):
    path = tmp_path / "m.txt"
    _fstring_write(path, FORMAT_CASES["exp_pm300"])

    def row_loop(path, data):
        raise AssertionError("a plain well-formed file reached the row loop")

    monkeypatch.setattr(linalg, "_read_matrix_data", row_loop)
    assert read_matrix_text(path).tobytes() == _float_loop_read(path).tobytes()


def test_matrix_text_errors_name_the_defect(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2\n3 4 5\n")
    with pytest.raises(OrthoSubselectError, match="row 2 has 3 values"):
        read_matrix_text(path)
    path.write_text("2 2\n1 2\n3 x7\n")
    with pytest.raises(OrthoSubselectError, match="float: 'x7'"):
        read_matrix_text(path)
    path.write_text("2 2\n1 2\n3 nan\n")
    with pytest.raises(OrthoSubselectError, match="entries must be finite"):
        read_matrix_text(path)
    path.write_text("1 2_0\n" + "0 " * 19 + "1\n")
    with pytest.raises(OrthoSubselectError, match="'_' is not allowed"):
        read_matrix_text(path)


def test_matrix_text_header_overstating_m_is_reported_not_allocated(tmp_path):
    # row 1 is counted before the n x M array exists; this one would take
    # 7.11 PiB
    path = tmp_path / "lie.txt"
    path.write_text("1 1000000000000000\n1 0\n")
    message = f"{path}: row 1 has 2 values, expected 1000000000000000"
    with pytest.raises(OrthoSubselectError, match=re.escape(message)):
        read_matrix_text(path)


def test_write_matrix_text_gz_suffix_stays_plain_ascii(tmp_path):
    path = tmp_path / "m.txt.gz"
    write_matrix_text(path, [[0.5, -0.0]])
    assert path.read_bytes() == b"1 2\n0.5 -0\n"
