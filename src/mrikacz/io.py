"""On-disk formats: instance directories, trace/report files, PGM images.

Complex vectors go to CSV with one value per row as (index, re, im); masks
are index lists; specs, summaries and reports are JSON.  Floats are written
with ``repr`` so every file round-trips bit-exactly, and regeneration with
the same seed is byte-identical.

Every CSV file is a table in one text format, the same for writing and
reading:

- the first line is the header, exactly as written (``index,re,im``,
  ``index``, ``receiver,n,re,im``, ``t,index,re,im`` or
  ``k,receiver,omega,alpha,residual[,error_to_truth]``);
- then one row per value, every line ended by ``\\n`` (a missing final
  ``\\n`` is accepted), with no blank lines;
- fields are separated by ``,`` with no quoting;
- integers are decimal; floats are ``repr`` text, including ``nan``,
  ``inf`` and ``-inf``.  A field is converted as Python's ``int`` or
  ``float`` would, and integers must fit in 64 bits.

A file that breaks the format raises :class:`FileFormatError` naming the
file and, where a line is at fault, its number.

A table's body is parsed in one ``numpy.loadtxt`` pass.  Only a body that
loadtxt declines, or would read otherwise than the format says, goes through
the row-by-row checks; they accept exactly what the format accepts and name
the first faulty line.  Both give the same arrays, bit for bit.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .grid import (
    ComplexImage,
    GridShape,
    KSpaceMask,
    MeasurementSet,
    MeasurementVector,
    SensitivityModel,
)
from .operators import LinearForward
from .phantoms import GroundTruth, Instance, InstanceSpec, exact_data
from .solvers import IterationTrace
from .transform import DftPlan

FORMAT_VERSION = 1

_SPEC_FIELDS = {
    "p_hor",
    "p_ver",
    "r_num",
    "basis_family",
    "b_num",
    "mask_family",
    "mask_fraction",
    "p_proj",
    "phantom_family",
    "deltas",
    "delta_mode",
    "seed",
}


_INT, _FLOAT = np.int64, np.float64

# Column names and types of each CSV table.
_COMPLEX = (("index", _INT), ("re", _FLOAT), ("im", _FLOAT))
_MASK = (("index", _INT),)
_MEASUREMENTS = (("t", _INT), ("index", _INT), ("re", _FLOAT), ("im", _FLOAT))
_COEFFICIENTS = (("receiver", _INT), ("n", _INT), ("re", _FLOAT), ("im", _FLOAT))
_TRACE = (
    ("k", _INT),
    ("receiver", _INT),
    ("omega", _INT),
    ("alpha", _FLOAT),
    ("residual", _FLOAT),
)
_TRACE_ERROR = ("error_to_truth", _FLOAT)


def _write_table(path, table, columns):
    """Write ``table``'s header, then one row per element of the columns."""
    row = ",".join("{}" if kind is _INT else "{!r}" for _, kind in table) + "\n"
    values = [np.asarray(col, dtype=kind).tolist() for (_, kind), col in zip(table, columns)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(name for name, _ in table) + "\n")
        fh.write("".join(map(row.format, *values)))


def _parse(path, lineno, text, kind, what):
    try:
        return kind(text)
    except (ValueError, OverflowError):
        raise FileFormatError(path, f"bad {what} value {text!r}", line=lineno) from None


def _column(path, tokens, kind, what):
    try:
        return np.array(tokens, dtype=kind)
    except (ValueError, OverflowError):
        # Only to find the line to report: the scalar type parses as the array does.
        for lineno, text in enumerate(tokens, start=2):
            _parse(path, lineno, text, kind, what)
        raise


def _undecodable(path, exc: UnicodeDecodeError) -> FileFormatError:
    return FileFormatError(path, f"not {exc.encoding} text: {exc.reason}")


def _read_body(path, table) -> tuple[str, list[str]]:
    """The text of a file in the module's CSV format and its lines below the checked header."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileFormatError(path, f"cannot open: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise FileFormatError(path, "empty file", line=1)
    names = [name for name, _ in table]
    header = lines[0].split(",")
    if header != names:
        raise FileFormatError(path, f"expected header {names}, got {header}", line=1)
    return text, lines[1:]


# Where numpy.loadtxt parts ways with the format: it skips blank lines and
# lines holding only "\r" (and warns if that leaves no data), ends a line at
# "\r", strips the ASCII separators \x1c-\x1f around a field as whitespace,
# and reads some non-ASCII digits in an integer field as other numbers.
_LOADTXT_UNSAFE = ("\r", "\x1c", "\x1d", "\x1e", "\x1f")


def _loadtxt_columns(table, text, body) -> list[np.ndarray] | None:
    """The columns of ``body`` parsed in one ``numpy.loadtxt`` pass, or None where it declines."""
    if not body or "" in body or not text.isascii() or any(c in text for c in _LOADTXT_UNSAFE):
        return None
    try:
        rows = np.loadtxt(
            body,
            dtype=np.dtype(list(table)),
            delimiter=",",
            comments=None,
            quotechar=None,
            ndmin=1,
        )
    except ValueError:
        return None
    # loadtxt drops lines it takes for empty, and the format has none to drop.
    if rows.size != len(body):
        return None
    return [rows[name] for name, _ in table]


def _per_row_columns(path, table, body) -> list[np.ndarray]:
    """The columns of ``body``, checked row by row; raises at the first faulty line."""
    fields = np.fromiter(map(str.count, body, repeat(",")), np.int64, len(body)) + 1
    # A blank line has no fields, not one empty field.
    fields[np.fromiter(map(len, body), np.int64, len(body)) == 0] = 0
    _first_bad_row(
        path, fields != len(table), lambda pos: f"expected {len(table)} fields, got {fields[pos]}"
    )
    tokens = ",".join(body).split(",") if body else []
    return [
        _column(path, tokens[c :: len(table)], kind, name) for c, (name, kind) in enumerate(table)
    ]


def _read_table(path, table) -> list[np.ndarray]:
    """One array per column of ``table``, read from a file in the module's CSV format."""
    text, body = _read_body(path, table)
    columns = _loadtxt_columns(table, text, body)
    if columns is None:
        columns = _per_row_columns(path, table, body)
    return columns


def _first_bad_row(path, bad, message):
    """Raise for the first row flagged in the boolean array ``bad``, if any."""
    rows = np.flatnonzero(bad)
    if rows.size:
        pos = int(rows[0])
        raise FileFormatError(path, message(pos), line=pos + 2)


def _complex(re, im) -> np.ndarray:
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def write_complex_csv(path, values: np.ndarray):
    values = np.asarray(values)
    _write_table(path, _COMPLEX, (np.arange(values.size), values.real, values.imag))


def read_complex_csv(path) -> np.ndarray:
    index, re, im = _read_table(path, _COMPLEX)
    _first_bad_row(
        path, index != np.arange(index.size), lambda pos: f"expected index {pos}, got {index[pos]}"
    )
    return _complex(re, im)


def write_mask_csv(path, mask: KSpaceMask):
    _write_table(path, _MASK, (mask.indices,))


def read_mask_csv(path, shape: GridShape) -> KSpaceMask:
    (indices,) = _read_table(path, _MASK)
    try:
        return KSpaceMask(shape, indices)
    except ValueError as exc:
        raise FileFormatError(path, str(exc)) from None


def write_measurements_csv(path, vector: MeasurementVector):
    values = vector.values
    _write_table(
        path,
        _MEASUREMENTS,
        (np.arange(values.size), vector.mask.indices, values.real, values.imag),
    )


def read_measurements_csv(path, mask: KSpaceMask) -> MeasurementVector:
    t, index, re, im = _read_table(path, _MEASUREMENTS)
    if t.size != mask.p_proj:
        raise FileFormatError(path, f"expected {mask.p_proj} rows, got {t.size}")
    _first_bad_row(
        path,
        (t != np.arange(t.size)) | (index != mask.indices),
        lambda pos: f"row disagrees with mask: t={t[pos]}, index={index[pos]}",
    )
    return MeasurementVector(mask, _complex(re, im))


def write_coefficients_csv(path, coefficients: np.ndarray):
    r_num, b_num = coefficients.shape
    _write_table(
        path,
        _COEFFICIENTS,
        (
            np.repeat(np.arange(r_num), b_num),
            np.tile(np.arange(b_num), r_num),
            coefficients.real.ravel(),
            coefficients.imag.ravel(),
        ),
    )


def read_coefficients_csv(path, r_num: int, b_num: int) -> np.ndarray:
    j, n, re, im = _read_table(path, _COEFFICIENTS)
    if j.size != r_num * b_num:
        raise FileFormatError(path, f"expected {r_num * b_num} rows, got {j.size}")
    pos = np.arange(j.size)
    _first_bad_row(
        path,
        (j != pos // b_num) | (n != pos % b_num),
        lambda row: f"rows out of order at ({j[row]}, {n[row]})",
    )
    return _complex(re, im).reshape(r_num, b_num)


def write_pgm(path, image: ComplexImage):
    """8-bit ASCII PGM of the image modulus, scaled linearly from [0, max]."""
    mags = np.abs(image.as_grid())
    peak = mags.max()
    levels = np.zeros(mags.shape, dtype=int) if peak == 0 else np.rint(mags / peak * 255).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{image.shape.p_hor} {image.shape.p_ver}\n255\n")
        for row in levels:
            fh.write(" ".join(str(v) for v in row) + "\n")


def write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(path, f"cannot open: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(path, exc.msg, line=exc.lineno) from None
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None


def spec_to_dict(spec: InstanceSpec) -> dict:
    return {
        "p_hor": spec.p_hor,
        "p_ver": spec.p_ver,
        "r_num": spec.r_num,
        "basis_family": spec.basis_family,
        "b_num": spec.b_num,
        "mask_family": spec.mask_family,
        "mask_fraction": spec.mask_fraction,
        "p_proj": spec.p_proj,
        "phantom_family": spec.phantom_family,
        "deltas": list(spec.deltas),
        "delta_mode": spec.delta_mode,
        "seed": spec.seed,
    }


def spec_from_dict(payload: dict, path="<spec>") -> InstanceSpec:
    if not isinstance(payload, dict):
        raise FileFormatError(path, "spec must be a JSON object")
    unknown = set(payload) - _SPEC_FIELDS
    if unknown:
        raise FileFormatError(path, f"unknown spec fields: {sorted(unknown)}")
    try:
        return InstanceSpec(**payload)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(path, f"invalid spec: {exc}") from None


def read_instance_spec(path) -> InstanceSpec:
    return spec_from_dict(read_json(path), path)


def write_instance(instance: Instance, out_dir) -> list[Path]:
    """Write a generated instance as the documented directory layout."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = instance.spec
    written = []

    def _w(name, writer, *args):
        p = out / name
        writer(p, *args)
        written.append(p)

    metadata = {
        "format_version": FORMAT_VERSION,
        "p_num": spec.grid.p_num,
        "p_proj": instance.mask.p_proj,
        "deltas_absolute": [float(d) for d in instance.measurements.deltas],
        "exact_data_norms": [float(np.linalg.norm(v.values)) for v in instance.truth.exact.vectors],
        "rho": instance.truth.rho,
        "initial_guess": "zero image",
        "flattening": "row-major, flat = (row-1)*p_hor + (col-1)",
        "noise_model": "complex Gaussian rescaled so ||noisy - exact|| = delta exactly",
    }
    _w("instance.json", write_json, {"spec": spec_to_dict(spec), "metadata": metadata})
    _w("ground_truth.csv", write_complex_csv, instance.truth.image.values)
    _w("mask.csv", write_mask_csv, instance.mask)
    _w("coefficients.csv", write_coefficients_csv, instance.model.coefficients)
    for n, b in enumerate(instance.model.basis):
        _w(f"basis_{n}.csv", write_complex_csv, b.values)
    for i in range(spec.r_num):
        _w(f"measurements_{i}.csv", write_measurements_csv, instance.measurements.vectors[i])
        _w(f"measurements_exact_{i}.csv", write_measurements_csv, instance.truth.exact.vectors[i])
    return written


def load_instance(instance_dir) -> Instance:
    """Rebuild an :class:`Instance` from a directory written by ``write_instance``.

    Reads ``instance.json``, ``ground_truth.csv``, ``mask.csv``,
    ``coefficients.csv``, ``basis_<n>.csv`` and ``measurements_<i>.csv``.
    The exact data are derived from the loaded operators and ground truth
    (:func:`mrikacz.phantoms.exact_data`, as ``synthesize`` makes them);
    ``measurements_exact_<i>.csv`` is written for reference only and is
    neither read nor validated here.
    """
    d = Path(instance_dir)
    payload = read_json(d / "instance.json")
    if "spec" not in payload or "metadata" not in payload:
        raise FileFormatError(d / "instance.json", "missing 'spec' or 'metadata' section")
    spec = spec_from_dict(payload["spec"], d / "instance.json")
    meta = payload["metadata"]
    shape = spec.grid

    truth_values = read_complex_csv(d / "ground_truth.csv")
    if truth_values.size != shape.p_num:
        raise FileFormatError(d / "ground_truth.csv", "ground truth length does not match grid")
    image = ComplexImage(shape, truth_values)
    mask = read_mask_csv(d / "mask.csv", shape)
    coeff = read_coefficients_csv(d / "coefficients.csv", spec.r_num, spec.b_num)
    basis = []
    for n in range(spec.b_num):
        vals = read_complex_csv(d / f"basis_{n}.csv")
        if vals.size != shape.p_num:
            raise FileFormatError(d / f"basis_{n}.csv", "basis length does not match grid")
        basis.append(ComplexImage(shape, vals))
    model = SensitivityModel(tuple(basis), coeff)
    plan = DftPlan(shape.p_num)
    operators = tuple(LinearForward(model, mask, plan, i) for i in range(spec.r_num))

    deltas = np.asarray(meta["deltas_absolute"], dtype=np.float64)
    noisy = MeasurementSet(
        tuple(read_measurements_csv(d / f"measurements_{i}.csv", mask) for i in range(spec.r_num)),
        deltas,
    )
    truth = GroundTruth(
        image=image,
        coefficients=coeff,
        exact=exact_data(operators, image),
        rho=float(meta["rho"]),
        initial_image=ComplexImage.zero(shape),
    )
    return Instance(
        spec=spec, truth=truth, model=model, mask=mask, operators=operators, measurements=noisy
    )


def write_trace_csv(path, trace: IterationTrace):
    table = _TRACE
    columns = [trace.steps, trace.receivers, trace.omegas, trace.alphas, trace.residuals]
    if trace.errors is not None:
        table += (_TRACE_ERROR,)
        columns.append(trace.errors)
    _write_table(path, table, columns)
