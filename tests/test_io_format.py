"""Byte-format oracle for the CSV writers and readers.

``reference_csv`` is the row-by-row formula the writers are pinned to:
``csv.writer`` with ``\\n`` terminators and every float written as
``repr(float(x))``.  Every writer must produce exactly its bytes, and every
reader must give back the written floats bit for bit.
"""

import csv
import io as stdio
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrikacz import io
from mrikacz.errors import FileFormatError
from mrikacz.grid import GridShape, KSpaceMask
from mrikacz.solvers import IterationTrace


def fmt(x):
    return repr(float(x))


def reference_csv(header, rows) -> bytes:
    buf = stdio.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


def complex_array(re, im):
    out = np.empty(len(re), dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def bits(values):
    return np.asarray(values).view(np.uint64)


# Signed zeros, infinities, subnormals and both sides of repr's switch to
# exponent notation (below 1e-4 and from 1e16 up).
SPECIAL = [
    0.0,
    -0.0,
    np.inf,
    -np.inf,
    5e-324,
    -5e-324,
    1e-310,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    1e-5,
    -1e-5,
    1e-4,
    9.999999999999999e-5,
    1e16,
    -1e16,
    9999999999999998.0,
    1.7976931348623157e308,
    0.1,
    1 / 3,
]
floats = st.one_of(st.floats(allow_nan=False), st.sampled_from(SPECIAL))


class Case:
    """Every table built from one complex array: image, mask, coefficients, trace."""

    def __init__(self, values, indices, b_num, with_errors):
        n = values.size
        self.values = values
        self.mask = KSpaceMask(GridShape(4 * n, 1), indices)
        self.coefficients = values.reshape(n // b_num, b_num)
        self.trace = IterationTrace(
            omegas=(values.real > 0).astype(np.int64),
            alphas=values.real,
            residuals=values.imag,
            errors=values.real[::-1].copy() if with_errors else None,
            k_star=None,
            r_num=4,
        )


def check_writers(path, case):
    v, mask, coeff, trace = case.values, case.mask, case.coefficients, case.trace

    io.write_complex_csv(path, v)
    assert path.read_bytes() == reference_csv(
        ["index", "re", "im"], ([i, fmt(x.real), fmt(x.imag)] for i, x in enumerate(v))
    )
    complex_back = io.read_complex_csv(path)

    io.write_mask_csv(path, mask)
    assert path.read_bytes() == reference_csv(["index"], ([int(i)] for i in mask.indices))
    np.testing.assert_array_equal(io.read_mask_csv(path, mask.shape).indices, mask.indices)

    io.write_coefficients_csv(path, coeff)
    assert path.read_bytes() == reference_csv(
        ["receiver", "n", "re", "im"],
        (
            [j, n, fmt(coeff[j, n].real), fmt(coeff[j, n].imag)]
            for j in range(coeff.shape[0])
            for n in range(coeff.shape[1])
        ),
    )
    coefficients_back = io.read_coefficients_csv(path, *coeff.shape)

    io.write_trace_csv(path, trace)
    header = ["k", "receiver", "omega", "alpha", "residual"]
    if trace.errors is not None:
        header.append("error_to_truth")
    rows = []
    for t in range(trace.n_steps):
        row = [
            int(trace.steps[t]),
            int(trace.receivers[t]),
            int(trace.omegas[t]),
            fmt(trace.alphas[t]),
            fmt(trace.residuals[t]),
        ]
        if trace.errors is not None:
            row.append(fmt(trace.errors[t]))
        rows.append(row)
    assert path.read_bytes() == reference_csv(header, rows)

    return complex_back, coefficients_back


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 24))
def test_writers_match_reference_and_round_trip_bits(tmp_path_factory, data, n):
    values = complex_array(
        data.draw(st.lists(floats, min_size=n, max_size=n)),
        data.draw(st.lists(floats, min_size=n, max_size=n)),
    )
    indices = sorted(data.draw(st.sets(st.integers(0, 4 * n - 1), min_size=n, max_size=n)))
    b_num = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    case = Case(values, np.array(indices), b_num, data.draw(st.booleans()))
    path = tmp_path_factory.mktemp("oracle") / "table.csv"
    for back, written in zip(check_writers(path, case), (values, case.coefficients)):
        np.testing.assert_array_equal(bits(back), bits(written))


def test_writers_match_reference_across_write_blocks(tmp_path):
    # The property test above writes at most 24 rows, all in one block.
    n = 2 * io._WRITE_BLOCK_ROWS + 3
    rng = np.random.default_rng(14)
    values = complex_array(np.resize(SPECIAL, n), rng.standard_normal(n))
    case = Case(values, np.arange(n) * 3 + 1, 1, True)
    for back, written in zip(check_writers(tmp_path / "table.csv", case), (values, case.coefficients)):
        np.testing.assert_array_equal(bits(back), bits(written))


def test_table_write_holds_a_bounded_number_of_rows(tmp_path):
    rng = np.random.default_rng(16)
    values = complex_array(rng.standard_normal(2**16), rng.standard_normal(2**16))  # 1 MiB
    tracemalloc.start()
    try:
        io.write_complex_csv(tmp_path / "table.csv", values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("nan_bits", [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001])
def test_nan_is_written_as_repr_and_reads_back_as_nan(tmp_path, nan_bits):
    # repr drops a NaN's sign and payload, so only NaN-ness survives the file.
    nan = np.array([nan_bits], dtype=np.uint64).view(np.float64)[0]
    values = complex_array([nan, -0.0, 1e16], [2.5, nan, nan])
    case = Case(values, np.arange(3), 3, True)
    for back in check_writers(tmp_path / "table.csv", case):
        back = back.ravel()
        for part, written in ((back.real, values.real), (back.imag, values.imag)):
            np.testing.assert_array_equal(np.isnan(part), np.isnan(written))
            kept = ~np.isnan(written)
            np.testing.assert_array_equal(bits(part[kept]), bits(written[kept]))


# The three tables the readers parse, by the name of the file kind that holds them.
TABLES = {
    "complex": io._COMPLEX,
    "mask": io._MASK,
    "coefficients": io._COEFFICIENTS,
}


def per_row(path, table):
    """The reader's row-by-row path alone, the reference for ``_read_table``."""
    _, body = io._read_body(path, table)
    return io._per_row_columns(path, table, body)


def outcome(read, path, table):
    """The columns as ``(dtype, uint64 bits)`` pairs, or the error text."""
    try:
        columns = read(path, table)
    except FileFormatError as exc:
        return str(exc)
    return [(col.dtype.str, bits(col).tolist()) for col in columns]


# Fields that Python's int/float take but loadtxt declines ("1_5", "٣"),
# that loadtxt reads otherwise than the format (a Takri digit, a trailing
# \x1c), a float in an integer column, and integers above 2**63.
ODD_FIELDS = [
    "1_5",
    "٣",
    "\U000116c6",
    "7\x1c",
    "1.0",
    "9223372036854775808",
    "18446744073709551617",
]
# Lines that loadtxt skips ("", "\r") or that hold only whitespace.
ODD_LINES = ["", "\r", " ", "\t ", "\x1f"]


@st.composite
def mutated_tables(draw):
    """A valid table of one of the three kinds, then a few edits that may break it."""
    table = TABLES[draw(st.sampled_from(sorted(TABLES)))]
    n = draw(st.integers(0, 6))
    field = {
        np.int64: st.integers(-(2**63), 2**63 - 1).map(str),
        np.float64: st.one_of(floats, st.just(np.nan)).map(fmt),
    }
    lines = [",".join(name for name, _ in table)]
    for _ in range(n):
        lines.append(",".join(draw(field[kind]) for _, kind in table))
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["field", "line", "add-comma", "drop-comma"]))
        if edit == "line":
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(ODD_LINES)))
            continue
        if len(lines) == 1:
            continue
        row = draw(st.integers(1, len(lines) - 1))
        if edit == "add-comma":
            at = draw(st.integers(0, len(lines[row])))
            lines[row] = lines[row][:at] + "," + lines[row][at:]
        elif edit == "drop-comma":
            lines[row] = lines[row].replace(",", "", 1)
        else:
            fields = lines[row].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD_FIELDS))
            lines[row] = ",".join(fields)
    newline = "\r\n" if draw(st.integers(0, 7)) == 0 else "\n"
    return table, "".join(line + newline for line in lines)


@settings(max_examples=500, deadline=None)
@given(case=mutated_tables())
def test_read_table_matches_the_per_row_path(tmp_path_factory, case):
    table, text = case
    path = tmp_path_factory.mktemp("differential") / "table.csv"
    path.write_bytes(text.encode())
    assert outcome(io._read_table, path, table) == outcome(per_row, path, table)


# Bodies whose lines loadtxt skips or splits, or whose fields it may read
# otherwise than the format, with the per-row path's error (None where it
# accepts the body).  Each must go the per-row way.
MISREAD_BODIES = {
    "blank-line": ("0,1.0,2.0\n\n1,3.0,4.0\n", ":3: expected 3 fields, got 0"),
    "blank-last-line": ("0,1.0,2.0\n1,3.0,4.0\n\n", ":4: expected 3 fields, got 0"),
    "only-a-blank-line": ("\n", ":2: expected 3 fields, got 0"),
    "cr-line": ("0,1.0,2.0\n\r\n1,3.0,4.0\n", ":3: expected 3 fields, got 1"),
    "cr-last-line": ("0,1.0,2.0\n1,3.0,4.0\n\r\n", ":4: expected 3 fields, got 1"),
    "only-a-cr-line": ("\r\n", ":2: expected 3 fields, got 1"),
    "cr-ended-row": ("0,1.0,2.0\r\n1,3.0,4.0\n", None),
    "unit-separator": ("0,1.0,2.0\x1f\n", ":2: bad im value '2.0\\x1f'"),
    "file-separator": ("\x1c0,1.0,2.0\n", ":2: bad index value '\\x1c0'"),
    "non-ascii-digit": ("\U000116c6,1.0,2.0\n", None),
    "non-ascii-space": ("0,1.0\xa0,2.0\n", None),
}


@pytest.mark.parametrize("body, error", MISREAD_BODIES.values(), ids=MISREAD_BODIES)
def test_bodies_loadtxt_misreads_go_the_per_row_way(tmp_path, body, error):
    path = tmp_path / "table.csv"
    path.write_bytes(("index,re,im\n" + body).encode())
    text, lines = io._read_body(path, io._COMPLEX)
    assert io._loadtxt_columns(io._COMPLEX, text, lines) is None
    got = outcome(io._read_table, path, io._COMPLEX)
    assert got == outcome(per_row, path, io._COMPLEX)
    if error is None:
        assert not isinstance(got, str)
    else:
        assert got.endswith(error)


@pytest.mark.parametrize(
    "values",
    [
        complex_array(SPECIAL, SPECIAL[::-1]),
        complex_array([np.nan, 2.5, -np.nan], [1e16, np.nan, -0.0]),
        complex_array([-0.0], [5e-324]),
    ],
    ids=["special", "nan", "one-row"],
)
def test_written_tables_take_the_loadtxt_path(tmp_path, loadtxt_only, values):
    case = Case(values, np.arange(values.size) * 2, 1, True)
    path = tmp_path / "table.csv"
    for back, written in zip(check_writers(path, case), (values, case.coefficients)):
        np.testing.assert_array_equal(back, written)
    # check_writers wrote the trace last.
    columns = io._read_table(path, io._TRACE + (io._TRACE_ERROR,))
    np.testing.assert_array_equal(columns[3], case.trace.alphas)
