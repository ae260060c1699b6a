"""On-disk formats: instance directories, trace/report files, PGM images.

An instance directory holds only what its spec cannot rebuild: the spec
and noise levels (``instance.json``), the ground truth, mask, coefficients
and noisy data.  Loading rebuilds the sensitivity basis from the spec
(:func:`mrikacz.phantoms.make_basis`); the exact data are derived from the
loaded operators on first use (:attr:`mrikacz.phantoms.GroundTruth.exact`),
so a reconstruction, which never reads them, never computes them.

Each receiver's noisy data, the solver's bulk input, is a binary ``.npy``
table (:func:`write_measurements_npy`); every other complex vector goes to
CSV with one value per row as (index, re, im); masks are index lists; specs,
summaries and reports are JSON.  Floats are written with ``repr`` or as
their IEEE bytes, so every file round-trips bit-exactly, and regeneration
with the same seed is byte-identical.

Every CSV file is a table in one text format, the same for writing and
reading:

- the first line is the header, exactly as written (``index,re,im``,
  ``index``, ``receiver,n,re,im`` or
  ``k,receiver,omega,alpha,residual[,error_to_truth]``);
- then one row per value, every line ended by ``\\n`` (a missing final
  ``\\n`` is accepted), with no blank lines;
- fields are separated by ``,`` with no quoting;
- integers are decimal; floats are ``repr`` text, including ``nan``,
  ``inf`` and ``-inf``.  A field is converted as Python's ``int`` or
  ``float`` would, and integers must fit in 64 bits.

A file that breaks the format raises :class:`FileFormatError` naming the
file and, where a line is at fault, its number.

A table is written a block of rows at a time, so a write holds a fixed
number of rows as Python objects however long the table is.  A table's body
is parsed in one ``numpy.loadtxt`` pass.  Only a body that
loadtxt declines, or would read otherwise than the format says, goes through
the row-by-row checks; they accept exactly what the format accepts and name
the first faulty line.  Both give the same arrays, bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FileFormatError
from .grid import (
    ComplexImage,
    GridShape,
    KSpaceMask,
    MeasurementSet,
    MeasurementVector,
    SensitivityModel,
    array_norm,
)
from .operators import LinearForward
from .phantoms import GroundTruth, Instance, InstanceSpec, make_basis
from .solvers import IterationTrace

FORMAT_VERSION = 2


def _is_number(value) -> bool:
    """An int or float that converts to a finite float: not ``Infinity``, ``NaN`` or a huge int."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# Types of JSON object fields: (what a value must be, its test).  A bool is
# neither an integer nor a number, and no value is converted to fit.
INTEGER = ("an integer", lambda value: type(value) is int)
NUMBER = ("a finite number", _is_number)
NUMBERS = (
    "a finite number or a list of finite numbers",
    lambda value: _is_number(value) or (type(value) is list and all(map(_is_number, value))),
)
STRING = ("a string", lambda value: type(value) is str)
STRINGS = ("a list of strings", lambda value: type(value) is list and all(type(v) is str for v in value))
BOOLEAN = ("true or false", lambda value: type(value) is bool)


def nullable(kind):
    """``kind``, or JSON ``null``."""
    what, test = kind
    return (f"{what} or null", lambda value: value is None or test(value))


def check_fields(path, payload, fields: dict, what: str) -> dict:
    """``payload``, checked to be a JSON object with only ``fields``, each of its type.

    ``fields`` maps each allowed name to its kind (such as :data:`INTEGER`);
    ``what`` names the object in errors, which name ``path``.
    """
    if not isinstance(payload, dict):
        raise FileFormatError(path, f"{what} must be a JSON object")
    unknown = set(payload) - set(fields)
    if unknown:
        raise FileFormatError(path, f"unknown {what} fields: {sorted(unknown)}")
    for name, value in payload.items():
        kind, test = fields[name]
        if not test(value):
            raise FileFormatError(path, f"{what} field {name!r} must be {kind}, got {value!r}")
    return payload


_SPEC_FIELDS = {
    "p_hor": INTEGER,
    "p_ver": INTEGER,
    "r_num": INTEGER,
    "basis_family": STRING,
    "b_num": INTEGER,
    "mask_family": STRING,
    "mask_fraction": nullable(NUMBER),
    "p_proj": nullable(INTEGER),
    "phantom_family": STRING,
    "deltas": NUMBERS,
    "delta_mode": STRING,
    "seed": INTEGER,
}


_INT, _FLOAT = np.int64, np.float64

# Column names and types of each CSV table.
_COMPLEX = (("index", _INT), ("re", _FLOAT), ("im", _FLOAT))
_MASK = (("index", _INT),)
_COEFFICIENTS = (("receiver", _INT), ("n", _INT), ("re", _FLOAT), ("im", _FLOAT))
_TRACE = (
    ("k", _INT),
    ("receiver", _INT),
    ("omega", _INT),
    ("alpha", _FLOAT),
    ("residual", _FLOAT),
)
_TRACE_ERROR = ("error_to_truth", _FLOAT)


# Rows formatted per write: a table write holds this many rows as Python
# objects at a time, however long the table.
_WRITE_BLOCK_ROWS = 2048


def _write_table(path, table, columns):
    """Write ``table``'s header, then one row per element of the columns, in blocks of rows."""
    row = ",".join("{}" if kind is _INT else "{!r}" for _, kind in table) + "\n"
    columns = [np.asarray(col, dtype=kind) for (_, kind), col in zip(table, columns)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(name for name, _ in table) + "\n")
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            block = [col[start : start + _WRITE_BLOCK_ROWS].tolist() for col in columns]
            fh.write("".join(map(row.format, *block)))


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


def read_image_csv(path, shape: GridShape, what: str) -> ComplexImage:
    """The image on ``shape`` in a :func:`write_complex_csv` file; ``what`` names it in errors."""
    values = read_complex_csv(path)
    if values.size != shape.p_num:
        raise FileFormatError(
            path, f"{what} length does not match grid: expected {shape.p_num}, got {values.size}"
        )
    return ComplexImage(shape, values)


def write_mask_csv(path, mask: KSpaceMask):
    _write_table(path, _MASK, (mask.indices,))


def read_mask_csv(path, shape: GridShape) -> KSpaceMask:
    (indices,) = _read_table(path, _MASK)
    try:
        return KSpaceMask(shape, indices)
    except ValueError as exc:
        raise FileFormatError(path, str(exc)) from None


# Row type of a measurements_<i>.npy table: one row per measured point.
_MEASUREMENTS_DTYPE = np.dtype([("index", "<i8"), ("value", "<c16")])


def write_measurements_npy(path, vector: MeasurementVector):
    """Receiver data as a ``.npy`` table of (index, value) rows in ``mask.indices`` order."""
    table = np.empty(vector.mask.p_proj, dtype=_MEASUREMENTS_DTYPE)
    table["index"] = vector.mask.indices
    table["value"] = vector.values
    with open(path, "wb") as fh:
        np.save(fh, table, allow_pickle=False)


def read_measurements_npy(path, mask: KSpaceMask) -> MeasurementVector:
    """The receiver data in a :func:`write_measurements_npy` file, checked against ``mask``."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FileFormatError(path, f"cannot open: {exc.strerror}") from exc
    with fh:
        try:
            table = np.load(fh, allow_pickle=False)
        except (EOFError, ValueError) as exc:
            raise FileFormatError(path, f"not a .npy table: {exc}") from None
        if not isinstance(table, np.ndarray):
            raise FileFormatError(path, "not a .npy table: an .npz archive")
        if fh.read(1):
            raise FileFormatError(path, "data beyond the end of the table")
    if table.dtype != _MEASUREMENTS_DTYPE:
        raise FileFormatError(
            path, f"expected dtype {_MEASUREMENTS_DTYPE.descr}, got {table.dtype.descr}"
        )
    if table.shape != (mask.p_proj,):
        raise FileFormatError(path, f"expected {mask.p_proj} rows, got shape {table.shape}")
    index = table["index"]
    bad = np.flatnonzero(index != mask.indices)
    if bad.size:
        pos = int(bad[0])
        raise FileFormatError(path, f"row {pos} disagrees with mask: index={index[pos]}")
    return MeasurementVector(mask, table["value"])


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
            fh.write(" ".join(map(str, row.tolist())) + "\n")


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


def spec_from_dict(payload: dict, path="<spec>") -> InstanceSpec:
    check_fields(path, payload, _SPEC_FIELDS, "spec")
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
        "exact_data_norms": [array_norm(v.values) for v in instance.truth.exact.vectors],
        "initial_guess": "zero image",
        "flattening": "row-major, flat = (row-1)*p_hor + (col-1)",
        "noise_model": "complex Gaussian rescaled so ||noisy - exact|| = delta exactly",
    }
    _w("instance.json", write_json, {"spec": asdict(spec), "metadata": metadata})
    _w("ground_truth.csv", write_complex_csv, instance.truth.image.values)
    _w("mask.csv", write_mask_csv, instance.mask)
    _w("coefficients.csv", write_coefficients_csv, instance.model.coefficients)
    for i in range(spec.r_num):
        _w(f"measurements_{i}.npy", write_measurements_npy, instance.measurements.vectors[i])
    return written


def load_instance(instance_dir) -> Instance:
    """Rebuild an :class:`Instance` from a directory written by ``write_instance``.

    Reads every file ``write_instance`` writes: ``instance.json`` (the spec,
    ``metadata.format_version`` and ``metadata.deltas_absolute``),
    ``ground_truth.csv``, ``mask.csv``, ``coefficients.csv`` and each
    receiver's noisy data, ``measurements_<i>.npy``
    (:func:`read_measurements_npy`).  Any format version but
    :data:`FORMAT_VERSION`, format 1's CSV receiver data included, is a
    fault of ``instance.json``.  The basis is built from the spec
    (:func:`mrikacz.phantoms.make_basis`); a spec it cannot be built from is
    a fault of ``instance.json``.  The exact data are derived from the
    loaded operators and ground truth on first use
    (:attr:`mrikacz.phantoms.GroundTruth.exact`, as ``synthesize`` makes them).
    Anything else in the directory, such as the ``basis_<n>.csv`` and
    ``measurements_exact_<i>.csv`` files and ``metadata.rho`` of older
    layouts, is ignored.
    """
    d = Path(instance_dir)
    meta_path = d / "instance.json"
    payload = read_json(meta_path)
    if not isinstance(payload, dict):
        raise FileFormatError(meta_path, "instance file must be a JSON object")
    if "spec" not in payload or "metadata" not in payload:
        raise FileFormatError(meta_path, "missing 'spec' or 'metadata' section")
    spec = spec_from_dict(payload["spec"], meta_path)
    meta = payload["metadata"]
    if not isinstance(meta, dict):
        raise FileFormatError(meta_path, "metadata must be a JSON object")
    version = meta.get("format_version")
    # The type is tested too: 2.0 == 2, and a bool is an int.
    if type(version) is not int or version != FORMAT_VERSION:
        raise FileFormatError(
            meta_path,
            f"metadata.format_version must be {FORMAT_VERSION}, got {version!r}; "
            "rebuild a format-1 directory with 'generate' from its 'spec' section",
        )
    deltas = meta.get("deltas_absolute")
    if not isinstance(deltas, list) or not all(map(_is_number, deltas)):
        raise FileFormatError(meta_path, "metadata.deltas_absolute must be a list of numbers")
    shape = spec.grid
    try:
        basis = make_basis(spec.basis_family, spec.b_num, shape)
    except ConfigurationError as exc:
        raise FileFormatError(meta_path, f"cannot build the basis: {exc}") from None

    image = read_image_csv(d / "ground_truth.csv", shape, "ground truth")
    mask = read_mask_csv(d / "mask.csv", shape)
    coeff = read_coefficients_csv(d / "coefficients.csv", spec.r_num, spec.b_num)
    model = SensitivityModel(basis, coeff)
    del basis  # the model holds its own copy, and the basis images are views of it
    operators = tuple(LinearForward(model, mask, i) for i in range(spec.r_num))

    vectors = tuple(
        read_measurements_npy(d / f"measurements_{i}.npy", mask) for i in range(spec.r_num)
    )
    try:
        noisy = MeasurementSet(vectors, deltas)
    except (ValueError, OverflowError) as exc:
        raise FileFormatError(meta_path, f"metadata.deltas_absolute: {exc}") from None
    truth = GroundTruth(image=image, operators=operators)
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
