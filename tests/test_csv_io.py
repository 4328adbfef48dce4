"""The CSV reader and artifact writer against the implementations they replaced.

`oracle_read_numeric_csv` is the csv.reader + float() loop that
`read_numeric_csv` used to be, and `old_csv_text` the per-cell dispatching
formatter that `_csv_lines` and `_prediction_lines` replaced. Both are kept
here as references.
"""

import csv
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bowl.cli import GRID_HEADER, ROW_BLOCK, _csv_lines, _csv_text, _prediction_lines, _write_artifacts
from bowl.pseudo_model import _BLOCK as B, DataError, read_numeric_csv


def oracle_read_numeric_csv(path):
    header, rows = None, []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in row]
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: ragged rows (line {reader.line_num} has {len(row)} cells, "
                    f"the header {len(header)})"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                line = reader.line_num
                raise DataError(f"{path}: non-numeric cell on line {line} ({exc})") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    if not rows:
        raise DataError(f"{path}: no data rows")
    values = np.array(rows)
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"{path}: NaN or Inf in column {header[j]}, data row {i + 1}")
    return header, values


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def old_csv_text(config: dict, header: list[str], rows) -> str:
    lines = ["# config=" + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


def read_either(reader, path):
    """("ok", header, bits) or ("error", message) for one reader on one file."""
    try:
        header, values = reader(path)
    except DataError as exc:
        return ("error", str(exc))
    return ("ok", header, bits(values).tolist())


def assert_agrees_with_the_oracle(path):
    """Both readers accept `path` with the same bits, or reject it naming the same line; the new result."""
    new = read_either(read_numeric_csv, path)
    old = read_either(oracle_read_numeric_csv, path)
    assert new[0] == old[0], (new, old)
    if new[0] == "ok":
        assert new == old
        return new
    message, expected = new[1], old[1]
    assert message.startswith(f"{path}: ")
    if "non-numeric cell" in expected:
        # The parenthesis holds the parser's own message, which differs.
        assert message.split(" (")[0] == expected.split(" (")[0]
    else:
        assert message == expected
    return new


SPECIAL = [0.0, -0.0, math.nan, 1e16, 1e-05, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
           0.1, 1 / 3, -123456.789, 1e22, 1e-7]


class TestWriter:
    def test_bytes_equal_the_old_formatter(self, tmp_path):
        gamma = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.int8)
        beta = np.array([SPECIAL[:3], SPECIAL[3:6]])
        config = {"command": "test", "seed": 3, "columns": ["x1", "x2"]}
        header = ["label", "k", "b1", "b2", "b3", "g1", "g2", "g3"]
        # The old callers passed numpy scalars and int(v) gamma; the new ones pass .tolist().
        old_rows = [[f"row{k}", k, *beta[k], *[int(v) for v in gamma[k]]] for k in range(2)]
        old_rows += [["bowl-normal", -7, *SPECIAL[6:9], 1, 0, 1],
                     ["bowl-ss", 0, *SPECIAL[9:12], 0, 1, 0]]
        new_rows = [[f"row{k}", k, *beta[k].tolist(), *gamma[k].tolist()] for k in range(2)]
        new_rows += old_rows[2:]
        path = tmp_path / "out.csv"
        _write_artifacts(tmp_path, {"out.csv": _csv_lines(config, header, new_rows)})
        expected = old_csv_text(config, header, old_rows).encode()
        assert path.read_bytes() == expected
        assert b"-0.0" in expected and b"nan" in expected and b"1e+16" in expected
        assert b"5e-324" in expected and b"1e-05" in expected

    def test_prediction_lines_equal_the_old_formatter(self, tmp_path):
        # prob_plus at and next to 0.5, at the ends of [0, 1] and at the smallest subnormal,
        # on both sides of a ROW_BLOCK boundary, among uniform draws; x cells from SPECIAL.
        prob = np.random.default_rng(3).uniform(size=ROW_BLOCK + 40)
        edges = [0.5, 0.0, 1.0, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 5e-324]
        prob[:6] = prob[ROW_BLOCK - 3 : ROW_BLOCK + 3] = edges
        x = np.resize(SPECIAL, (len(prob), 3))
        action, certainty = np.where(prob >= 0.5, 1, -1), np.maximum(prob, 1.0 - prob)  # as recommend
        config, header = {"command": "predict"}, ["x1", "x2", "x3"] + GRID_HEADER[2:]
        _write_artifacts(tmp_path, {"out.csv": _csv_text(config, header,
                                                         _prediction_lines(x, prob, action, certainty))})
        rows = [[*x[i], prob[i], action[i], certainty[i]] for i in range(len(prob))]
        expected = old_csv_text(config, header, rows)
        assert (tmp_path / "out.csv").read_text() == expected
        assert ",0.49999999999999994,-1,0.5\n" in expected and ",5e-324,-1,1.0\n" in expected
        assert ",0.5000000000000001,1,0.5000000000000001\n" in expected
        assert "-0.0," in expected and "nan," in expected

    def test_failed_write_leaves_no_file(self, tmp_path):
        def rows():
            yield [1.0]
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            _write_artifacts(tmp_path, {"out.csv": _csv_lines({}, ["x1"], rows())})
        assert list(tmp_path.iterdir()) == []

    def test_second_artifact_failing_leaves_neither(self, tmp_path):
        def rows():
            yield [1.0]
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            _write_artifacts(tmp_path, {"a.csv": _csv_lines({}, ["x1"], [[2.0]]),
                                        "b.csv": _csv_lines({}, ["x1"], rows())})
        assert list(tmp_path.iterdir()) == []

    def test_nonfinite_echo_raises_before_any_byte(self, tmp_path):
        lines = _csv_lines({"x": float("inf")}, ["x1"], [[1.0]])
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            next(lines)
        with pytest.raises(ValueError):
            _write_artifacts(tmp_path, {"out.csv": _csv_lines({"x": math.nan}, ["x1"], [[1.0]])})
        assert list(tmp_path.iterdir()) == []

    def test_writes_every_artifact_and_names_them(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir"
        _write_artifacts(out, {"a.csv": ["a\n"], "b.json": iter(["{", "}\n"])})
        assert sorted(p.name for p in out.iterdir()) == ["a.csv", "b.json"]
        assert (out / "b.json").read_text() == "{}\n"
        assert capsys.readouterr().out == f"wrote a.csv, b.json in {out}\n"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
                    min_size=1, max_size=30))
    def test_round_trip_is_bit_identical(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rt.csv"
            _write_artifacts(Path(tmp), {"rt.csv": _csv_lines({"seed": 0}, ["x1", "x2", "x3"], rows)})
            header, values = read_numeric_csv(path)
        assert header == ["x1", "x2", "x3"]
        np.testing.assert_array_equal(bits(values), bits(np.array(rows)))


# The accepted dialect: one row per line, comma-separated, optional double
# quotes, whitespace around cells, blank lines, indented `#` comments, LF, CRLF or
# CR line ends. Cell texts cover float formats and values both readers reject.
_finite = st.floats(allow_nan=False, allow_infinity=False)
_number_text = st.one_of(
    _finite.map(repr),
    _finite.map(lambda v: "%.17g" % v),
    _finite.map(lambda v: "%.6e" % v),
    _finite.map(lambda v: "%.3f" % v),
    _finite.map(lambda v: "%.25g" % v),
    _finite.map(lambda v: ("%.4E" % v).replace("E+0", "E")),
    st.sampled_from(["+.5", "5.", "-0", "007", "1e5", "1E-5", "-1.5e+03", "4.9e-324", "1e400", "1e-400"]),
)
_bad_text = st.sampled_from(["abc", "", "1e", ".", "--1", "0x10", "1 2", "nan", "-inf", "Infinity", "1;2"])
_space = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _cell(draw):
    text = draw(st.one_of(_number_text, _number_text, _number_text, _bad_text))
    if draw(st.booleans()) and draw(st.booleans()):
        return '"' + draw(_space) + text + draw(_space) + '"' + draw(st.sampled_from(["", " "]))
    return draw(_space) + text + draw(_space)


@st.composite
def _csv_file(draw):
    k = draw(st.integers(1, 4))
    names = [f"x{j}" for j in range(1, k + 1)]
    lines = [",".join(draw(_space) + name + draw(_space) for name in names)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "comment", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "comment":
            lines.append(draw(_space) + "#" + draw(st.text("ab ,.#-", max_size=8)))
        else:
            n = k + draw(st.sampled_from([-1, 1])) if kind == "ragged" else k
            lines.append(",".join(draw(_cell()) for _ in range(max(n, 1))))
    lead = draw(st.lists(st.sampled_from(["", "# lead, comment", "  # indented"]), max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lead + lines)
    return text + (newline if draw(st.booleans()) else "")


class TestReader:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_csv_file())
    def test_agrees_with_the_oracle(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            path.write_bytes(text.encode())
            assert_agrees_with_the_oracle(path)

    @pytest.mark.parametrize("p, special, expected", [
        (2, {}, None),
        (2, {k: ["", "  # c"][k % 2] for k in range(6, 3 * B + 90, 7)} | {40: "1,nan", 560: "3,x"},
         "non-numeric cell on line 563 ("),
        (2, {597: "1,inf"}, "NaN or Inf in column x2, data row 598"),
        # Comment, quoted and blank lines first and last in a block; blocks of only comments or blanks.
        (2, {0: "  # first", B - 1: '"# quoted, last"', **{k: "# c" for k in range(B, 2 * B)}, 2 * B: "",
             3 * B - 1: "", 3 * B: '"1.5","-2"', 3 * B + 89: "# last"}, None),
        (1, {0: "7", B - 1: "5", B: "", 2 * B - 1: "# c", **{k: "" for k in range(2 * B, 3 * B)},
             3 * B: "3", 3 * B + 89: "1"}, None),
        # A bad cell in a block read as it stands, then in one read line by line.
        (2, {B + 10: "3,x"}, f"non-numeric cell on line {B + 13} ("),
        (2, {B + 5: "# c", B + 10: "3,x"}, f"non-numeric cell on line {B + 13} ("),
    ])
    def test_agrees_with_the_oracle_across_blocks(self, tmp_path, p, special, expected):
        # 3 * _BLOCK + 90 body lines, body line k on physical line k + 3; `special` replaces some.
        rng = np.random.default_rng(7)
        lines = ["# lead", ",".join(f"x{j + 1}" for j in range(p))]
        for k, row in enumerate(rng.normal(size=(3 * B + 90, p)).tolist()):
            lines.append(special.get(k, ",".join(map(repr, row))))
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        new = assert_agrees_with_the_oracle(path)
        assert new[0] == "ok" if expected is None else new[1].startswith(f"{path}: {expected}")

    def test_crlf_quotes_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "data.csv"
        lines = ["  # leading comment", " x1 , x2 ", "", '"0.5"," 1e-3 " ', '"# quoted comment",1',
                 "\t# tab comment", "-.25 ,\t7E2", '"1"2,3']
        path.write_text("\r\n".join(lines) + "\r\n")
        header, values = read_numeric_csv(path)
        assert header == ["x1", "x2"]
        np.testing.assert_array_equal(values, [[0.5, 1e-3], [-0.25, 700.0], [12.0, 3.0]])

    @pytest.mark.parametrize("cell", ["1_000", "١", "１"])
    def test_rejects_what_only_float_accepted(self, tmp_path, cell):
        # float() takes digit-group underscores and non-ASCII digits; numpy does not.
        path = tmp_path / "data.csv"
        path.write_text(f"x1,x2\n1,2\n3,{cell}\n")
        assert oracle_read_numeric_csv(path)[1].shape == (2, 2)
        with pytest.raises(DataError, match=re.escape(f"{path}: non-numeric cell on line 3 (")):
            read_numeric_csv(path)

    def test_rejects_a_quoted_cell_spanning_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('x1,x2\n1,2\n"3\n",4\n')
        with pytest.raises(DataError, match=re.escape(f"{path}: quoted cell left open at the end of line 3")):
            read_numeric_csv(path)

    def test_error_names_the_physical_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# c\nx1,x2\n\n1,2\n# c\n\n3,4\n5,x\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: non-numeric cell on line 8 (")):
            read_numeric_csv(path)
        path.write_text("x1,x2\n1,2,3\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: ragged rows (line 2 has 3 cells, the header 2)")):
            read_numeric_csv(path)

    @pytest.mark.parametrize("at", [-3, 2 + 2 * B, 2 + 3 * B - 1, 2 + 3 * B])
    @pytest.mark.parametrize("bad, message", [("3,x", "non-numeric cell on line {} ("),
                                              ("3,4,5", "ragged rows (line {} has 3 cells, the header 2)")])
    def test_names_the_first_bad_line_past_the_first_block(self, tmp_path, at, bad, message):
        # Blocks are counted in physical body lines from line 3: three blocks of data, blank and
        # comment lines, then data alone. `at` is the first bad line's index: in the last, short
        # block, first or last in a block read line by line, or first in one read as it stands.
        lines = ["# c", "x1,x2"] + ["1,2", "", "# c"] * B + ["1,2"] * (B + 7)
        lines[at] = lines[-1] = bad
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        expected = message.format(at % len(lines) + 1)
        with pytest.raises(DataError, match=re.escape(f"{path}: {expected}")):
            read_numeric_csv(path)
        assert read_either(oracle_read_numeric_csv, path)[1].startswith(f"{path}: {expected}")
