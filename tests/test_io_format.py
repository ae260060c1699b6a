"""Byte-format oracle for the CSV writers and readers.

``reference_csv`` is the row-by-row formula the writers are pinned to:
``csv.writer`` with ``\\n`` terminators and every float written as
``repr(float(x))``.  Every writer must produce exactly its bytes, and every
reader must give back the written floats bit for bit.
"""

import csv
import io as stdio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrikacz import io
from mrikacz.grid import GridShape, KSpaceMask, MeasurementVector
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
    """Every table built from one complex array: image, mask, measurements, coefficients, trace."""

    def __init__(self, values, indices, b_num, with_errors):
        n = values.size
        self.values = values
        self.mask = KSpaceMask(GridShape(4 * n, 1), indices)
        self.coefficients = values.reshape(n // b_num, b_num)
        steps = np.arange(n, dtype=np.int64)
        self.trace = IterationTrace(
            steps=steps,
            receivers=steps % 4,
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

    io.write_measurements_csv(path, MeasurementVector(mask, v))
    assert path.read_bytes() == reference_csv(
        ["t", "index", "re", "im"],
        ([t, int(i), fmt(x.real), fmt(x.imag)] for t, (i, x) in enumerate(zip(mask.indices, v))),
    )
    measurements_back = io.read_measurements_csv(path, mask).values

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

    return complex_back, measurements_back, coefficients_back


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
    for back, written in zip(check_writers(path, case), (values, values, case.coefficients)):
        np.testing.assert_array_equal(bits(back), bits(written))


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
