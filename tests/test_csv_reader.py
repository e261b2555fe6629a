"""The columnar CSV reader and writer of seqdi.population.

The reader parses a clean file column by column and scans any other row by
row, and must raise what a reader that checks one row at a time, in file
order, raises: the first faulty row's first fault.  ``reference_load`` below
is such a reader, the package's own before it read by columns, plus the
covariate check; hypothesis tests compare the two on fuzzed files.
hypothesis is a test-only dependency; without it those two tests are not
collected.
"""

import csv
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqdi import population
from seqdi.errors import MissingColumn, ParseError
from seqdi.numerics import RngStream
from seqdi.population import (Partition, Population, generate_population, load_population_csv,
                              load_sample_csv, save_population_csv, write_csv, write_csv_blocks)

ROOT = Path(__file__).resolve().parents[1]
COVARIATE_MAX = math.sqrt(sys.float_info.max)


# ---------------------------------------------------------------- reference

def _ref_float(raw, row, column):
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"non-numeric value {raw!r} in row {row}, column {column!r}",
                         row=row, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {raw!r} in row {row}, column {column!r}",
                         row=row, column=column)
    return value


def _ref_covariate(raw, row, column):
    value = _ref_float(raw, row, column)
    if abs(value) > COVARIATE_MAX:
        raise ParseError(f"{column} = {raw} in row {row}, column {column!r}, is too large: "
                         "its square overflows", row=row, column=column)
    return value


def _ref_pi(raw, row):
    value = _ref_float(raw, row, "pi")
    if not 0.0 < value <= 1.0:
        raise ParseError(f"pi = {raw} outside (0, 1] in row {row}", row=row, column="pi")
    square = value * value
    if square == 0.0 or math.isinf(1.0 / square):
        raise ParseError(f"pi = {raw} in row {row}, column 'pi', is too small: 1/pi^2 overflows",
                         row=row, column="pi")
    return value


def _ref_next(rows, what, row):
    """The next item of ``rows`` (None after the last); a read that fails raises the
    ParseError of the row it stopped at, ``row`` (0: the header)."""
    try:
        return next(rows, None)
    except (ValueError, csv.Error) as err:
        where = f"row {row}" if row else "the header"
        raise ParseError(f"cannot read the {what} file from {where} on: {err}",
                         row=row) from None


def _ref_records(path, what, required, ids):
    """The header, then each data row as (row from 1, dict), checked as it is read."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(itertools.dropwhile(lambda line: line.startswith("#"), handle))
        header = _ref_next(reader, what, 0) or []
        for i, column in enumerate(header):
            if column in header[:i]:
                raise ParseError(f"{what} file names column {column!r} twice", row=0, column=column)
        for column in required:
            if column not in header:
                raise MissingColumn(f"{what} file needs column {column!r}")
        yield header
        rows = filter(None, reader)
        for i in itertools.count(1):
            cells = _ref_next(rows, what, i)
            if cells is None:
                break
            if len(cells) > len(header):
                raise ParseError(f"extra value in row {i}: {len(cells)} cells, "
                                 f"{len(header)} columns", row=i)
            if len(cells) < len(header) or "" in cells:
                name = header[cells.index("") if "" in cells else len(cells)]
                raise ParseError(f"missing value in row {i}, column {name!r}", row=i, column=name)
            record = dict(zip(header, cells))
            uid = record["id"]
            if uid in ids:
                raise ParseError(f"id {uid!r} repeated in rows {ids[uid] + 1} and {i}", row=i,
                                 column="id")
            ids[uid] = i - 1
            yield i, record
    if not ids:
        raise ParseError(f"{what} file has no data rows", row=0)


def reference_load(path):
    """(x, y, delta or None, ids) of a population file, read one row at a time."""
    ids = {}
    records = _ref_records(path, "population", ("id", "y"), ids)
    header = next(records)
    xcols = sorted((c for c in header if c.startswith("x") and c[1:].isdigit()),
                   key=lambda c: int(c[1:]))
    ys, xs, deltas = [], [], []
    for i, record in records:
        ys.append(_ref_float(record["y"], i, "y"))
        xs.append([1.0] + [_ref_covariate(record[c], i, c) for c in xcols])
        if "delta" in header:
            value = record["delta"].strip()
            if value not in ("0", "1"):
                raise ParseError(f"delta must be 0 or 1 in row {i}", row=i, column="delta")
            deltas.append(value == "1")
    return (np.array(xs, dtype=float).reshape(len(ys), 1 + len(xcols)), np.array(ys),
            np.array(deltas, dtype=bool) if "delta" in header else None, ids)


def reference_sample(path):
    ids = {}
    records = _ref_records(path, "sample", ("id", "pi"), ids)
    has_y = "y" in next(records)
    pis, ys = [], []
    for i, record in records:
        pis.append(_ref_pi(record["pi"], i))
        if has_y:
            ys.append(_ref_float(record["y"], i, "y"))
    return list(ids), np.array(pis, dtype=float), np.array(ys, dtype=float) if has_y else None


def outcome(call):
    """What a call returns, or its error as (class, message, row, column)."""
    try:
        return "ok", call()
    except (ParseError, MissingColumn, ValueError) as err:
        return "error", (type(err), str(err), getattr(err, "row", None),
                         getattr(err, "column", None))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def population_tuple(data):
    pop = data.population
    return pop.x, pop.y, None if data.partition is None else data.partition.delta, data.ids


def assert_same_population(path):
    kind, want = outcome(lambda: reference_load(path))
    got_kind, got = outcome(lambda: population_tuple(load_population_csv(path)))
    assert (got_kind, kind) == (kind, kind), (got, want)
    if kind == "error":
        assert got == want
        return
    for a, b in zip(got[:3], want[:3]):
        assert (a is None and b is None) or same_bits(np.asarray(a), np.asarray(b)), (a, b)
    assert got[3] == want[3] and list(got[3]) == list(want[3])


def assert_same_sample(path):
    kind, want = outcome(lambda: reference_sample(path))
    got_kind, got = outcome(lambda: load_sample_csv(path))
    assert (got_kind, kind) == (kind, kind), (got, want)
    if kind == "error":
        assert got == want
        return
    assert got[0] == want[0]
    assert same_bits(got[1], want[1])
    assert (got[2] is None and want[2] is None) or same_bits(got[2], want[2])


# ----------------------------------------------------------- differential

# valid cell texts by column, then every kind of fault the reader checks
NUMBERS = ["0", "1", "0.5", "-0.0", "2.25", "1e-3", "-7", "0.1", " 1", "1 ", "5e-324", "1e16",
           "1.3407807929942596e154"]
VALID = {"pi": ["0.5", "1", "0.1", "1e-3", "7.5e-155", " 1"], "delta": ["0", "1", " 1", "1 "]}
FAULTS = ["", "abc", "nan", "inf", "-inf", "1e200", "-1e155", "2", "1e-200", "1.5", "0.0", "-0.0"]


def _file_text(header, rows, blank_after, comment):
    lines = (["# a comment"] if comment else []) + [",".join(header)]
    for i, row in enumerate(rows):
        lines.append(",".join(row))
        if i in blank_after:
            lines.append("")
    return "\n".join(lines) + "\n"


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the differential test needs hypothesis; the rest does not
    given = None

if given is not None:
    @st.composite
    def csv_files(draw, sample):
        optional = ["y", "extra"] if sample else ["x2", "x1", "x10", "delta", "pi", "extra"]
        header = ["id", "pi" if sample else "y"]
        header += draw(st.lists(st.sampled_from(optional), unique=True, max_size=4))
        header = draw(st.permutations(header))
        if draw(st.integers(0, 19)) == 0:  # a column named twice, or id missing
            header = header + [header[-1]] if draw(st.booleans()) else header[1:]
        n = draw(st.integers(0, 12))
        faulty = draw(st.integers(0, 4))  # how many cells get a fault
        rows = []
        for i in range(n):
            rows.append([str(i + 1) if c == "id" else draw(st.sampled_from(VALID.get(c, NUMBERS)))
                         for c in header])
        for _ in range(faulty if n else 0):
            i = draw(st.integers(0, n - 1))
            kind = draw(st.integers(0, 9))  # mostly a faulty value
            if kind == 0:
                rows[i].append(draw(st.sampled_from(NUMBERS)))
            elif kind == 1 and rows[i]:
                rows[i].pop()
            elif kind in (2, 3):  # maybe a repeated id
                j = header.index("id") if "id" in header else 0
                if j < len(rows[i]):
                    rows[i][j] = str(draw(st.integers(1, n)))
            elif rows[i]:
                j = draw(st.integers(0, len(rows[i]) - 1))
                rows[i][j] = draw(st.sampled_from(FAULTS))
        blank_after = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2))
        return _file_text(header, rows, blank_after, draw(st.booleans()))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=csv_files(sample=False))
    def test_population_reader_matches_row_wise_reference(text, tmp_path_factory):
        path = tmp_path_factory.mktemp("pop") / "pop.csv"
        path.write_text(text, encoding="utf-8")
        assert_same_population(path)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=csv_files(sample=True))
    def test_sample_reader_matches_row_wise_reference(text, tmp_path_factory):
        path = tmp_path_factory.mktemp("sample") / "sample.csv"
        path.write_text(text, encoding="utf-8")
        assert_same_sample(path)


@pytest.mark.parametrize("body, row, column", [
    # an earlier row's fault wins over a later row's, whatever their columns
    ("1,0.5,nan,1\n2,abc,2,1\n", 1, "y"),
    ("1,abc,2,1\n2,0.5,nan,1\n", 1, "x1"),
    ("1,0.5,2,2\n2,abc,2,1\n", 1, "delta"),
    ("1,0.5,2,1\n1,0.5,2,1\n3,abc,2,1\n", 2, "id"),
    ("1,0.5,2,1\n2,0.5,2\n3,abc,2,1\n", 2, "delta"),
    ("1,0.5,2,1,9\n2,abc,2,1\n", 1, None),
    # within a row: structure, then id, then y, x1, ..., delta in turn
    ("1,abc,nan,1\n", 1, "y"),
    ("1,1e200,2,7\n", 1, "x1"),
    ("1,0.5,,7\n", 1, "y"),
    ("1,0.5,2,1\n1,abc,2,1\n", 2, "id"),
])
def test_first_fault_in_file_order(tmp_path, body, row, column):
    path = tmp_path / "pop.csv"
    path.write_text("id,x1,y,delta\n" + body)
    with pytest.raises(ParseError) as err:
        load_population_csv(path)
    assert (err.value.row, err.value.column) == (row, column)
    assert_same_population(path)


def test_clean_files_never_reach_the_row_scan(tmp_path, monkeypatch):
    pop = generate_population({"N": 10_000, "beta": [10, 15, 10, 20], "sigma": 0.6},
                              RngStream(3, 0))
    part = Partition(delta=RngStream(4, 0).uniform(size=10_000) < 0.6)
    save_population_csv(tmp_path / "pop.csv", pop, part)
    ids = part.complement_idx[::3] + 1
    pi = RngStream(5, 0).uniform(size=len(ids)) * 0.9 + 0.05
    write_csv(tmp_path / "sample.csv", ["id", "pi", "y"], [ids, pi, pop.y[ids - 1]])

    def scan(*args):
        raise AssertionError("a clean file reached the row scan")

    monkeypatch.setattr(population, "_first_fault", scan)
    x, y, delta, got_ids = population_tuple(load_population_csv(tmp_path / "pop.csv"))
    assert same_bits(x, np.asfortranarray(pop.x)) and same_bits(y, pop.y)
    assert same_bits(delta, part.delta)
    assert got_ids == {str(i): i - 1 for i in range(1, 10_001)}
    sample_ids, sample_pi, sample_y = load_sample_csv(tmp_path / "sample.csv")
    assert sample_ids == [str(i) for i in ids]
    assert same_bits(sample_pi, pi) and same_bits(sample_y, pop.y[ids - 1])


@pytest.mark.parametrize("last, message, column", [
    ("2000,0.5,nan,1", "non-finite value 'nan' in row 2000, column 'y'", "y"),
    ("2000,0.5,2,1,7", "extra value in row 2000: 5 cells, 4 columns", None),
    ("1999,0.5,2,1", "id '1999' repeated in rows 1999 and 2000", "id"),
    ("2000,0.5,2,", "missing value in row 2000, column 'delta'", "delta"),
])
def test_a_fault_in_the_last_row_names_that_row(tmp_path, last, message, column):
    rows = "".join(f"{i},0.5,2,1\n" for i in range(1, 2000))
    path = tmp_path / "pop.csv"
    path.write_text("id,x1,y,delta\n" + rows + last + "\n")
    with pytest.raises(ParseError) as err:
        load_population_csv(path)
    assert (str(err.value), err.value.row, err.value.column) == (message, 2000, column)
    assert_same_population(path)


@pytest.mark.parametrize("text", [
    'id,x1,y\r\n"a,1",0.5,2\r\n"b""2",0.25,3\r\n',  # quoted ids, CRLF
    'id,x1,y\n"line\nbreak",0.5,2\n\n\nb,0.3,1\n\n',  # a newline in a cell, blank lines
    'id,x1,y\rone,0.5,2\rtwo,"0.3",1\r',  # CR line ends, a quoted number
    '# note\nid,x1,y,delta\n1, 0.5 ,2, 1\n2,0.3,1,0 \n',  # blanks around cells
    'id,x1,y\n1,0.5,2,\n',  # a trailing comma: an extra empty cell
    'id,x1,y\n"",0.5,2\n',  # an empty quoted id
])
def test_quoting_and_line_ends_read_as_the_reference(tmp_path, text):
    path = tmp_path / "pop.csv"
    path.write_bytes(text.encode())
    assert_same_population(path)


def test_undecodable_byte_after_a_faulty_row(tmp_path):
    # the rows read before the undecodable chunk are checked first, as a reader
    # that stops at the failing read would check them
    rows = "".join(f"{i},0.5,2,1\n" for i in range(1, 2000))
    path = tmp_path / "pop.csv"
    path.write_bytes(b"id,x1,y,delta\n1x,abc,2,1\n" + rows.encode() + b"9999,\xff,2,1\n")
    with pytest.raises(ParseError, match="non-numeric value 'abc' in row 1"):
        load_population_csv(path)
    assert_same_population(path)
    path.write_bytes(b"id,x1,y,delta\n" + rows.encode() + b"9999,\xff,2,1\n")
    with pytest.raises(ParseError, match=r"cannot read the population file from row \d+ on: "
                                         "'utf-8' codec can't decode byte 0xff") as err:
        load_population_csv(path)
    assert 1 < err.value.row <= 2000 and err.value.column is None
    assert_same_population(path)


@pytest.mark.parametrize("where, text, row", [
    # a small file is decoded in one chunk, so the header read meets the byte
    ("undecodable", b"id,x1,y\n1,0.5,2\n2,\xff,1\n", 0),
    ("undecodable", b"id,x\xff1,y\n1,0.5,2\n", 0),
    ("oversize", b"id,x1,y\n1,0.5,2\n2,0.5,\"" + b"9" * 200_000 + b"\"\n3,0.5,2\n", 2),
    ("oversize", b"id,\"" + b"x" * 200_000 + b"\",y\n1,0.5,2\n", 0),
    # a faulty row above the oversize cell is the first fault
    ("oversize", b"id,x1,y\n1,abc,2\n2,0.5,\"" + b"9" * 200_000 + b"\"\n", 1),
])
def test_unreadable_file_is_a_parse_error_naming_the_row(tmp_path, where, text, row):
    path = tmp_path / "pop.csv"
    path.write_bytes(text)
    with pytest.raises(ParseError) as err:
        load_population_csv(path)
    assert err.value.row == row
    if row != 1:
        cause = "field larger than field limit" if where == "oversize" else "0xff"
        assert cause in str(err.value)
    assert_same_population(path)
    sample = tmp_path / "sample.csv"
    sample.write_bytes(text.replace(b"x1", b"pi").replace(b"0.5", b"0.25"))
    assert_same_sample(sample)


@pytest.mark.parametrize("x1", ["1e200", "-1.35e154", "1.3407807929942597e154"])
def test_covariate_whose_square_overflows_names_row(tmp_path, x1):
    path = tmp_path / "pop.csv"
    path.write_text(f"id,x1,y\n1,0.5,2\n2,{x1},1\n")
    with pytest.raises(ParseError, match=f"x1 = {x1} in row 2, column 'x1', is too large: "
                                         "its square overflows") as err:
        load_population_csv(path)
    assert (err.value.row, err.value.column) == (2, "x1")


def test_largest_covariate_with_a_finite_square_is_read(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(f"id,x1,y\n1,{COVARIATE_MAX!r},1e300\n2,{-COVARIATE_MAX!r},2\n")
    assert load_population_csv(path).population.x[:, 1].tolist() == [COVARIATE_MAX,
                                                                      -COVARIATE_MAX]
    assert np.isfinite(COVARIATE_MAX * COVARIATE_MAX)


# ------------------------------------------------------------------ writer

def test_round_trip_of_extreme_floats(tmp_path):
    values = [5e-324, -0.0, 0.1, 1e16, 1e154, -1.3407807929942596e154]
    x = np.column_stack([np.ones(6), values, values[::-1]])
    y = np.array([1e308, -0.0, 5e-324, 0.1, 1e16, -1e308])
    part = Partition(delta=np.array([1, 0, 1, 0, 0, 1]))
    path = tmp_path / "pop.csv"
    save_population_csv(path, Population(x=x, y=y), part)
    data = load_population_csv(path)
    assert same_bits(data.population.x, np.asfortranarray(x))
    assert same_bits(data.population.y, y)
    assert same_bits(data.partition.delta, part.delta)
    assert data.ids == {str(i): i - 1 for i in range(1, 7)}
    text = path.read_text()
    assert text.splitlines()[1] == "1,5e-324,-1.3407807929942596e+154,1e+308,1"
    assert "np." not in text


def test_array_columns_keep_repr_bytes(tmp_path):
    rng = np.random.default_rng(5)
    # more rows than the writer converts at once
    floats = np.concatenate([rng.normal(size=5000) * 10.0 ** rng.integers(-300, 300, size=5000),
                             [0.0, -0.0, 5e-324, 1e16, 1e-5, 0.0001, 123456789.0]])
    ints = np.arange(len(floats))
    singles = (rng.normal(size=len(floats)) * 1e3).astype(np.float32)
    path = tmp_path / "a.csv"
    write_csv(path, ["i", "v", "v32"], [ints, floats, singles])
    lines = path.read_text().splitlines()
    assert lines[0] == "i,v,v32"
    assert len(lines) == len(floats) + 1
    for line, i, v, v32 in zip(lines[1:], ints, floats, singles):
        assert line == f"{int(i)},{float(v)!r},{float(v32)!r}"


def test_numpy_scalars_are_written_as_python_numbers(tmp_path):
    # a numpy scalar in a list, or in an object array, is written as the Python
    # number it holds, never as its numpy text (np.float64(...), or float32's
    # shortest digits)
    scalars = [np.float64(0.1), np.float32(0.1), np.int64(7), np.float64(-0.0), None, "a"]
    path = tmp_path / "s.csv"
    write_csv(path, ["list", "object"], [scalars, np.array(scalars, dtype=object)], seed=4)
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# seed=4", "list,object"]
    want = ["0.1", repr(float(np.float32(0.1))), "7", "-0.0", "", "a"]
    assert lines[2:] == [f"{w},{w}" for w in want]
    assert "np." not in path.read_text()


def test_blocks_write_the_bytes_of_their_concatenation(tmp_path):
    a, b = np.array([0.1, -0.0, 1e16]), np.array([5e-324, 2.5])
    write_csv_blocks(tmp_path / "blocks.csv", ["k", "v", "w"],
                     ([range(len(v)), v, [None] * len(v)] for v in (a, b)), seed=9)
    write_csv(tmp_path / "whole.csv", ["k", "v", "w"],
              [[0, 1, 2, 0, 1], np.concatenate([a, b]), [None] * 5], seed=9)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    write_csv_blocks(tmp_path / "none.csv", ["k"], [])
    assert (tmp_path / "none.csv").read_text() == "k\n"


def test_columns_of_different_lengths_are_refused(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [[1, 2], [3]])


# ----------------------------------------------------------- no numpy.ma

NO_MA_SCRIPT = """
import json, os, sys
from seqdi import Partition, RngStream, generate_population, save_population_csv
from seqdi.cli import main
from seqdi.harness import McConfig, run_mc
os.chdir(sys.argv[1])
pop = generate_population({"N": 600, "beta": [10, 15, 10, 20], "sigma": 0.6}, RngStream(1, 0))
save_population_csv("pop.csv", pop, Partition(delta=RngStream(2, 0).uniform(size=600) < 0.6))
if sys.argv[2] == "simulate":
    with open("fixed.json", "w") as handle:
        json.dump({"replications": 6, "seed": 7, "mechanism": "FixedPartition",
                   "population_csv": "pop.csv", "designs": ["optimal", "equal"],
                   "estimators": ["DI", "adDI"]}, handle)
    code = main(["simulate", "--config", "fixed.json", "--out", "out", "--threads", "2"])
    assert code == 0 and os.path.exists("out/test_summary.csv")
else:
    summary = run_mc(McConfig(replications=4, seed=3, mechanism="NMAR",
                              population_params={"N": 600, "beta": [10, 15, 10, 20],
                                                 "sigma": 0.6},
                              designs=("optimal", "pps"), estimators=("DI", "IPW", "DR")))
    assert len(summary.tests) == 2
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("run", ["simulate", "run_mc"])
def test_a_run_never_imports_numpy_ma(tmp_path, run):
    proc = subprocess.run([sys.executable, "-c", NO_MA_SCRIPT, str(tmp_path), run],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                                   OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
