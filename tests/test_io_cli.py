import json
import pickle
import struct
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest

import mrikacz as mk
from mrikacz import cli, io
from mrikacz.cli import _write_failure, main
from mrikacz.errors import FileFormatError, NumericalFailure

SPEC_8 = {
    "p_hor": 8,
    "p_ver": 8,
    "r_num": 4,
    "basis_family": "harmonics",
    "b_num": 2,
    "mask_family": "random",
    "mask_fraction": 0.5,
    "phantom_family": "blobs",
    "deltas": 0.05,
    "delta_mode": "relative",
    "seed": 21,
}


def spec_fault(**overrides):
    """A case of spec fields to override, with an id such as ``p_ver--2``."""
    return pytest.param(overrides, id="-".join(f"{k}-{v}" for k, v in overrides.items()))


def write_spec(path, **overrides):
    payload = dict(SPEC_8, **overrides)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def read_bytes(path):
    return Path(path).read_bytes()


def edit_file(path, edit):
    """Rewrite a text file through ``edit``, a function of its list of lines."""
    path.write_text("".join(f"{text}\n" for text in edit(path.read_text().splitlines())))


def replace_line(lineno, text):
    def edit(lines):
        lines[lineno - 1] = text
        return lines

    return edit


def set_field(lineno, col, text):
    def edit(lines):
        fields = lines[lineno - 1].split(",")
        fields[col] = text
        lines[lineno - 1] = ",".join(fields)
        return lines

    return edit


def insert_line(lineno, text):
    def edit(lines):
        lines.insert(lineno - 1, text)
        return lines

    return edit


def empty(lines):
    return []


def drop_last(lines):
    return lines[:-1]


def repeat_last(lines):
    return lines + lines[-1:]


# Columns of the three CSV readers' files in an 8x8, r_num=2, b_num=2 instance
# (64 image rows, 4 coefficient rows, 32 mask rows).
GT, MASK, COEF = "ground_truth.csv", "mask.csv", "coefficients.csv"
CSV_COLUMNS = {
    GT: ("index", "re", "im"),
    MASK: ("index",),
    COEF: ("receiver", "n", "re", "im"),
}
INT_COLUMNS = {"index", "receiver", "n"}
TOO_BIG = "99999999999999999999"


def corruption(name, edit, line, fragment, fault):
    """File, edit of its lines, line number in the message (None: no line), message fragment."""
    return pytest.param(name, edit, line, fragment, id=f"{name}-{fault}")


CORRUPTIONS = [
    *(corruption(f, empty, 1, "empty file", "empty") for f in CSV_COLUMNS),
    *(corruption(f, replace_line(1, "a,b"), 1, "expected header", "header") for f in CSV_COLUMNS),
    *(corruption(f, insert_line(4, ""), 4, "fields, got 0", "blank-line") for f in CSV_COLUMNS),
    corruption(GT, replace_line(4, "2,0.5"), 4, "expected 3 fields, got 2", "short-row"),
    corruption(MASK, replace_line(4, "5,6"), 4, "expected 1 fields, got 2", "long-row"),
    corruption(COEF, replace_line(4, "1,0,0.5"), 4, "expected 4 fields, got 3", "short-row"),
    *(
        corruption(f, set_field(4, c, "x"), 4, f"bad {col} value 'x'", f"{col}-value")
        for f, cols in CSV_COLUMNS.items()
        for c, col in enumerate(cols)
    ),
    # An integer beyond 64 bits is reported with its line by every reader.
    *(
        corruption(f, set_field(4, c, TOO_BIG), 4, TOO_BIG, f"{col}-overflow")
        for f, cols in CSV_COLUMNS.items()
        for c, col in enumerate(cols)
        if col in INT_COLUMNS
    ),
    corruption(GT, set_field(4, 0, "7"), 4, "expected index 2, got 7", "index-order"),
    corruption(COEF, set_field(4, 0, "0"), 4, "rows out of order at (0, 0)", "receiver-order"),
    corruption(COEF, set_field(4, 1, "1"), 4, "rows out of order at (1, 1)", "n-order"),
    corruption(GT, drop_last, None, "ground truth length does not match grid", "row-count"),
    corruption(COEF, drop_last, None, "expected 4 rows, got 3", "row-count"),
    corruption(MASK, replace_line(2, "-1"), None, "strictly increasing", "range"),
]

class TestInstanceRoundTrip:
    def test_write_then_load_is_bit_identical(self, tmp_path):
        inst = mk.synthesize(mk.InstanceSpec(p_hor=8, p_ver=8, r_num=3, b_num=2, seed=77))
        io.write_instance(inst, tmp_path)
        loaded = io.load_instance(tmp_path)
        assert loaded.spec == inst.spec
        np.testing.assert_array_equal(loaded.truth.image.values, inst.truth.image.values)
        np.testing.assert_array_equal(loaded.model.coefficients, inst.model.coefficients)
        np.testing.assert_array_equal(loaded.mask.indices, inst.mask.indices)
        np.testing.assert_array_equal(loaded.measurements.deltas, inst.measurements.deltas)
        for a, b in zip(loaded.measurements.vectors, inst.measurements.vectors):
            np.testing.assert_array_equal(a.values, b.values)
        for a, b in zip(loaded.truth.exact.vectors, inst.truth.exact.vectors):
            np.testing.assert_array_equal(a.values, b.values)
        assert len(loaded.model.basis) == len(inst.model.basis)
        for a, b in zip(loaded.model.basis, inst.model.basis):
            np.testing.assert_array_equal(a.values.view(np.uint64), b.values.view(np.uint64))

    @pytest.mark.parametrize("mask_family", ["full", "rows", "random"])
    @pytest.mark.parametrize("side", [8, 6], ids=["8x8", "6x6"])
    def test_exact_data_derived_bit_for_bit_without_the_files(self, tmp_path, mask_family, side):
        spec = mk.InstanceSpec(p_hor=side, p_ver=side, r_num=3, b_num=2, mask_family=mask_family, seed=5)
        inst = mk.synthesize(spec)
        io.write_instance(inst, tmp_path)
        loaded = io.load_instance(tmp_path)
        for derived, made in zip(loaded.truth.exact.vectors, inst.truth.exact.vectors):
            np.testing.assert_array_equal(derived.values.view(np.uint64), made.values.view(np.uint64))
        np.testing.assert_array_equal(loaded.truth.exact.deltas, np.zeros(spec.r_num))

    def test_load_derives_exact_data_on_first_use(self, tmp_path, monkeypatch):
        inst = mk.synthesize(mk.InstanceSpec(p_hor=8, p_ver=8, r_num=3, b_num=2, seed=77))
        io.write_instance(inst, tmp_path)
        calls = []
        forward = mk.DftPlan.forward_values

        def counted(plan, values, out=None):
            calls.append(plan)
            return forward(plan, values, out)

        monkeypatch.setattr(mk.DftPlan, "forward_values", counted)
        loaded = io.load_instance(tmp_path)
        assert calls == []
        exact = loaded.truth.exact
        assert len(calls) == 3
        assert loaded.truth.exact is exact
        assert len(calls) == 3

    @pytest.mark.parametrize("name, edit, line, fragment", CORRUPTIONS)
    def test_corrupt_csv_reports_line(self, tmp_path, name, edit, line, fragment):
        inst = mk.synthesize(mk.InstanceSpec(p_hor=8, p_ver=8, r_num=2, b_num=2, seed=1))
        io.write_instance(inst, tmp_path)
        target = tmp_path / name
        edit_file(target, edit)
        with pytest.raises(FileFormatError) as err:
            io.load_instance(tmp_path)
        loc = f"{target}:{line}" if line is not None else str(target)
        assert str(err.value).startswith(f"{loc}: ")
        assert fragment in str(err.value)

    def test_every_written_file_is_read(self, tmp_path):
        inst = mk.synthesize(mk.InstanceSpec(p_hor=8, p_ver=8, r_num=2, b_num=2, seed=1))
        written = io.write_instance(inst, tmp_path)
        for path in written:
            content = path.read_bytes()
            path.unlink()
            with pytest.raises(FileFormatError) as err:
                io.load_instance(tmp_path)
            assert str(err.value).startswith(f"{path}: cannot open")
            path.write_bytes(content)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(FileFormatError):
            io.read_complex_csv(path)


class TestPgm:
    def test_linear_scaling_and_header(self, tmp_path):
        img = mk.ComplexImage(mk.GridShape(2, 2), [0, 3j, -4, 2 + 2j])
        path = tmp_path / "out.pgm"
        io.write_pgm(path, img)
        # max modulus 4 maps to 255; 3 -> round(191.25); |2+2i| -> round(180.3)
        assert path.read_bytes() == b"P2\n2 2\n255\n0 191\n255 180\n"

    def test_zero_image(self, tmp_path):
        img = mk.ComplexImage.zero(mk.GridShape(2, 1))
        path = tmp_path / "zero.pgm"
        io.write_pgm(path, img)
        assert path.read_text().splitlines()[3:] == ["0 0"]


class TestGenerateCommand:
    def test_file_contract(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        out = tmp_path / "inst"
        assert main(["generate", "--config", str(spec), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "instance.json",
            "ground_truth.csv",
            "mask.csv",
            "coefficients.csv",
            *(f"measurements_{i}.npy" for i in range(4)),
        }

    def test_zero_noise_files_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", deltas=0.0)
        out = tmp_path / "inst"
        main(["generate", "--config", str(spec), "--out", str(out)])
        instance = io.load_instance(out)
        for loaded, exact in zip(instance.measurements.vectors, instance.truth.exact.vectors):
            np.testing.assert_array_equal(loaded.values.view(np.uint64), exact.values.view(np.uint64))

    def test_regeneration_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(spec), "--out", str(out1)])
        main(["generate", "--config", str(spec), "--out", str(out2)])
        for p in sorted(out1.iterdir()):
            assert read_bytes(p) == read_bytes(out2 / p.name), p.name

    def test_seed_flag_overrides(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(spec), "--out", str(out1), "--seed", "99"])
        main(["generate", "--config", str(spec), "--out", str(out2)])
        assert read_bytes(out1 / "ground_truth.csv") != read_bytes(out2 / "ground_truth.csv")

    def test_unknown_spec_field_is_io_error(self, tmp_path):
        path = tmp_path / "spec.json"
        with open(path, "w") as fh:
            json.dump(dict(SPEC_8, extra=1), fh)
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize(
        "field, value",
        [
            ("p_hor", 8.5),
            ("p_ver", "8"),
            ("r_num", True),
            ("b_num", None),
            ("seed", 21.0),
            ("p_proj", 2.5),
            ("mask_fraction", "0.5"),
            ("mask_fraction", False),
            ("deltas", True),
            ("deltas", "0.05"),
            ("deltas", [0.05, 0.05, True, 0.05]),
            ("deltas", None),
            ("basis_family", 3),
            ("mask_family", None),
            ("phantom_family", ["blobs"]),
            ("delta_mode", 1),
            ("mask_fraction", float("inf")),
        ],
    )
    def test_wrong_spec_field_type_is_io_error(self, tmp_path, capsys, field, value):
        path = write_spec(tmp_path / "spec.json", **{field: value})
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "x")]) == 4
        assert f"{path}: spec field '{field}' must be " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mask_fraction": None, "p_proj": 20},
            {"mask_fraction": 1, "deltas": 0},
            {"deltas": [0.05, 0, 0.1, 0.2]},
            {"mask_family": "full", "mask_fraction": 0},
            {"mask_family": "rows", "mask_fraction": 2.0},
        ],
        ids=["p_proj", "integer-numbers", "deltas-list", "full-mask-fraction-0", "rows-mask-fraction-2"],
    )
    def test_well_typed_spec_fields_are_accepted(self, tmp_path, overrides):
        path = write_spec(tmp_path / "spec.json", **overrides)
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            spec_fault(p_hor=0),
            spec_fault(p_ver=-2),
            spec_fault(b_num=0),
            spec_fault(seed=-1),
            spec_fault(phantom_family="nope"),
            spec_fault(basis_family="nope"),
            spec_fault(mask_family="nope"),
            # The mask size rule: a random mask measures 1 to p_num points,
            # a rows mask keeps at least one row.
            *(spec_fault(mask_fraction=f) for f in (-0.5, 0, 2.0)),
            *(spec_fault(p_proj=n) for n in (0, 100)),
            spec_fault(mask_family="rows", mask_fraction=0),
            spec_fault(mask_family="rows", p_proj=-3),
        ],
    )
    def test_bad_spec_value_is_io_error(self, tmp_path, capsys, overrides):
        path = write_spec(tmp_path / "spec.json", **overrides)
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "x")]) == 4
        assert f"{path}: invalid spec: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys):
        path = write_spec(tmp_path / "spec.json")
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "x"), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_spec_file(self, tmp_path):
        rc = main(["generate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 4


@pytest.fixture()
def generated(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "inst"
    main(["generate", "--config", str(spec), "--out", str(out)])
    return out


def write_run_config(path, instance, out, **overrides):
    payload = {"instance": str(instance), "out": str(out), **overrides}
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def with_metadata(name, value):
    """An edit of ``instance.json`` that sets ``metadata.<name>``, or drops it for None."""

    def edit(payload):
        meta = dict(payload["metadata"], **{name: value})
        if value is None:
            del meta[name]
        return dict(payload, metadata=meta)

    return edit


def with_spec(**fields):
    """An edit of ``instance.json`` that sets ``fields`` in its spec."""
    return lambda payload: dict(payload, spec=dict(payload["spec"], **fields))


# Edits of a generated 8x8, 4-receiver instance.json that leave it unusable.
BAD_INSTANCE_FILES = [
    pytest.param(lambda payload: 3, id="not-an-object"),
    pytest.param(lambda payload: dict(payload, metadata=[]), id="metadata-list"),
    pytest.param(with_spec(deltas=float("nan")), id="spec-deltas-nan"),
    pytest.param(with_spec(p_hor=8.0), id="spec-p_hor-float"),
    pytest.param(with_spec(seed=True), id="spec-seed-bool"),
    pytest.param(with_spec(basis_family="nope"), id="basis-family-unknown"),
    pytest.param(with_spec(phantom_family="nope"), id="phantom-family-unknown"),
    pytest.param(with_spec(mask_family="nope"), id="mask-family-unknown"),
    pytest.param(with_spec(p_hor=0), id="spec-p_hor-zero"),
    pytest.param(with_spec(b_num=0), id="spec-b_num-zero"),
    pytest.param(with_spec(seed=-1), id="spec-seed-negative"),
    pytest.param(with_spec(b_num=65), id="basis-b_num-too-large"),
    pytest.param(with_spec(mask_fraction=0), id="spec-mask_fraction-zero"),
    pytest.param(with_spec(mask_family="rows", p_proj=-3), id="spec-rows-p_proj-negative"),
    *(
        pytest.param(with_metadata("format_version", version), id=f"format-version-{label}")
        for label, version in [("missing", None), ("1", 1), ("3", 3), ("string", "2"), ("bool", True)]
    ),
    *(
        pytest.param(with_metadata("deltas_absolute", deltas), id=f"deltas-{label}")
        for label, deltas in [
            ("missing", None),
            ("number", 0.1),
            ("short", [0.1, 0.1, 0.1]),
            ("negative", [-0.1, 0.1, 0.1, 0.1]),
            ("string", ["0.1", 0.1, 0.1, 0.1]),
            ("bool", [True, 0.1, 0.1, 0.1]),
            ("nan", [float("nan"), 0.1, 0.1, 0.1]),
            ("inf", [float("inf"), 0.1, 0.1, 0.1]),
            ("-inf", [float("-inf"), 0.1, 0.1, 0.1]),
            ("huge-int", [10**400, 0.1, 0.1, 0.1]),
        ]
    ),
]


def npy_bytes(array, **save):
    buf = BytesIO()
    np.save(buf, array, **save)
    return buf.getvalue()


def npz_bytes(array):
    buf = BytesIO()
    np.savez(buf, array)
    return buf.getvalue()


def garbage_header(data):
    end = data.index(b"\n") + 1
    return data[:10] + b"?" * (end - 11) + b"\n" + data[end:]


def with_index(table, row, index):
    table = table.copy()
    table["index"][row] = index
    return npy_bytes(table)


# Rewrites of a generated 8x8 instance's measurements_0.npy (32 rows), a
# function of its bytes and its table, that leave it unusable; and a fragment
# of the message.
NPY_FAULTS = [
    pytest.param(lambda data, table: b"", "not a .npy table", id="empty"),
    pytest.param(lambda data, table: data[:-8], "not a .npy table", id="truncated"),
    pytest.param(lambda data, table: garbage_header(data), "not a .npy table", id="garbage-header"),
    pytest.param(
        lambda data, table: npy_bytes(table.astype(object), allow_pickle=True),
        "not a .npy table",
        id="object-array",
    ),
    pytest.param(lambda data, table: pickle.dumps(table), "not a .npy table", id="pickle"),
    pytest.param(lambda data, table: npz_bytes(table), "an .npz archive", id="npz"),
    pytest.param(lambda data, table: data + b"\0", "data beyond the end", id="trailing-byte"),
    pytest.param(
        lambda data, table: npy_bytes(table["value"]), "expected dtype", id="plain-complex"
    ),
    pytest.param(
        lambda data, table: npy_bytes(table.astype(table.dtype.newbyteorder(">"))),
        "expected dtype",
        id="big-endian",
    ),
    pytest.param(
        lambda data, table: npy_bytes(np.concatenate([table, table[-1:]])),
        "expected 32 rows, got shape (33,)",
        id="extra-row",
    ),
    pytest.param(
        lambda data, table: npy_bytes(table.reshape(4, 8)),
        "expected 32 rows, got shape (4, 8)",
        id="two-dimensional",
    ),
    pytest.param(
        lambda data, table: with_index(table, 3, -1),
        "row 3 disagrees with mask: index=-1",
        id="index-mask",
    ),
]


class TestMeasurementsNpy:
    def test_file_bytes_are_pinned(self, tmp_path):
        inst = mk.synthesize(mk.InstanceSpec(p_hor=8, p_ver=8, r_num=2, b_num=2, seed=1))
        io.write_instance(inst, tmp_path)
        vector = inst.measurements.vectors[0]
        assert vector.mask.p_proj == 32
        # Format version 1.0: magic, the header's length as 2 little-endian
        # bytes, then the header, padded with spaces and a newline so the
        # data start at a multiple of 64 bytes.
        header = "{'descr': [('index', '<i8'), ('value', '<c16')], 'fortran_order': False, 'shape': (32,), }"
        preamble = b"\x93NUMPY\x01\x00" + struct.pack("<H", 118) + header.ljust(117).encode() + b"\n"
        rows = zip(vector.mask.indices.tolist(), vector.values.tolist())
        body = b"".join(struct.pack("<qdd", i, v.real, v.imag) for i, v in rows)
        assert (tmp_path / "measurements_0.npy").read_bytes() == preamble + body

    @pytest.mark.parametrize("rewrite, fragment", NPY_FAULTS)
    def test_faulty_table_is_io_error(self, tmp_path, generated, capsys, rewrite, fragment):
        path = generated / "measurements_0.npy"
        data = path.read_bytes()
        path.write_bytes(rewrite(data, np.load(BytesIO(data))))
        with pytest.raises(FileFormatError) as err:
            io.load_instance(generated)
        assert str(err.value).startswith(f"{path}: ")
        assert fragment in str(err.value)
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec")
        assert main(["reconstruct", "--config", str(run)]) == 4
        assert f"{path}: " in capsys.readouterr().err


class TestReconstructCommand:
    def test_summary_and_trace_invariants(self, tmp_path, generated):
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec", method="lsdk")
        assert main(["reconstruct", "--config", str(run)]) == 0
        summary = json.loads((tmp_path / "rec" / "summary.json").read_text())
        assert summary["termination_reason"] == "stopping-rule"
        assert summary["k_star"] % 4 == 0
        assert summary["discrepancy_ok"]
        for r, b in zip(summary["final_residuals"], summary["tau_delta_bounds"]):
            assert r <= b
        rows = (tmp_path / "rec" / "trace.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header == ["k", "receiver", "omega", "alpha", "residual", "error_to_truth"]
        deltas = summary["deltas"]
        for row in rows[1:]:
            k, receiver, omega, alpha, residual, err = row.split(",")
            assert int(receiver) == int(k) % 4
            expected_omega = 1 if float(residual) > summary["tau"] * deltas[int(receiver)] else 0
            assert int(omega) == expected_omega
        assert (tmp_path / "rec" / "result.csv").exists()
        assert (tmp_path / "rec" / "result_magnitude.pgm").exists()

    @pytest.mark.parametrize(
        "method, joint", [("lsdk", False), ("llk", False), ("lsdk", True)], ids=["lsdk", "llk", "joint-cap"]
    )
    def test_summary_verdict_is_the_library_result(self, tmp_path, generated, method, joint):
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec", method=method)
        flags = ["--joint", "--max-cycles", "5"] if joint else []
        assert main(["reconstruct", "--config", str(run), *flags]) == 0
        summary = json.loads((tmp_path / "rec" / "summary.json").read_text())
        instance = io.load_instance(generated)
        if joint:
            result = mk.run_joint(instance.joint_problem(), mk.SolverConfig(method=method, max_cycles=5))
        else:
            problem = instance.linear_problem()
            if method == "llk":
                problem, _ = mk.rescale_problem(problem)
            result = mk.run_linear(problem, mk.SolverConfig(method=method))
        assert summary["termination_reason"] == result.reason
        assert summary["final_residuals"] == result.final_residuals
        assert summary["tau_delta_bounds"] == result.tau_delta_bounds
        assert summary["discrepancy_ok"] is result.discrepancy_ok

    def test_llk_records_scaling_report(self, tmp_path, generated):
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec", method="llk")
        assert main(["reconstruct", "--config", str(run)]) == 0
        summary = json.loads((tmp_path / "rec" / "summary.json").read_text())
        assert summary["scaling"] is not None
        assert all(p <= 1 + 1e-6 for p in summary["scaling"]["post_norms"])

    def test_exact_solution_initial_guess_stops_at_zero(self, tmp_path, generated):
        run = write_run_config(
            tmp_path / "run.json",
            generated,
            tmp_path / "rec",
            initial_image=str(generated / "ground_truth.csv"),
        )
        assert main(["reconstruct", "--config", str(run)]) == 0
        summary = json.loads((tmp_path / "rec" / "summary.json").read_text())
        assert summary["k_star"] == 0

    def test_identical_config_gives_identical_outputs(self, tmp_path, generated):
        run1 = write_run_config(tmp_path / "run1.json", generated, tmp_path / "rec1")
        run2 = write_run_config(tmp_path / "run2.json", generated, tmp_path / "rec2")
        main(["reconstruct", "--config", str(run1)])
        main(["reconstruct", "--config", str(run2)])
        assert read_bytes(tmp_path / "rec1" / "trace.csv") == read_bytes(
            tmp_path / "rec2" / "trace.csv"
        )
        assert read_bytes(tmp_path / "rec1" / "result.csv") == read_bytes(
            tmp_path / "rec2" / "result.csv"
        )

    @pytest.mark.parametrize("joint", [False, True], ids=["linear", "joint"])
    def test_non_finite_residual_is_numerical_failure(self, tmp_path, generated, capsys, joint):
        values = io.read_complex_csv(generated / "ground_truth.csv")
        values[5] = np.nan
        io.write_complex_csv(tmp_path / "nan.csv", values)
        run = write_run_config(
            tmp_path / "run.json", generated, tmp_path / "rec", initial_image=str(tmp_path / "nan.csv")
        )
        argv = ["reconstruct", "--config", str(run)] + (["--joint"] if joint else [])
        assert main(argv) == 3
        assert "non-finite residual at step 0 (receiver 0)" in capsys.readouterr().err
        summary = json.loads((tmp_path / "rec" / "summary.json").read_text())
        assert summary["termination_reason"] == "numerical-failure"
        assert summary["n_steps"] == 0 and summary["n_cycles"] == 0
        assert summary["last_finite_residuals"] == [None] * 4
        assert (tmp_path / "rec" / "trace.csv").read_text().count("\n") == 1

    def test_failure_summary_reads_the_partial_trace(self, tmp_path, generated, monkeypatch):
        problem = io.load_instance(generated).linear_problem()
        monkeypatch.setattr(mk.solvers, "sdk_step_size", lambda s_norm, mapped_norm: 1e308)
        config = mk.SolverConfig(method="lsdk", max_cycles=5)
        with pytest.raises(NumericalFailure) as exc_info, np.errstate(over="ignore", invalid="ignore"):
            mk.run_linear(problem, config)
        trace = exc_info.value.trace
        assert trace.n_steps >= 1
        _write_failure(tmp_path, exc_info.value)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_steps"] == trace.n_steps
        assert summary["n_cycles"] == trace.n_cycles
        expected = [None] * 4
        for i, residual in zip(trace.receivers, trace.residuals):
            expected[i] = float(residual)
        assert summary["last_finite_residuals"] == expected

    def test_corrupt_exact_data_file_changes_no_output(self, tmp_path, generated):
        """An older layout, with basis and exact-data files and ``metadata.rho``, loads as before."""
        run1 = write_run_config(tmp_path / "run1.json", generated, tmp_path / "rec1")
        run2 = write_run_config(tmp_path / "run2.json", generated, tmp_path / "rec2")
        assert main(["reconstruct", "--config", str(run1)]) == 0
        (generated / "measurements_exact_0.csv").write_text("not,a\nmeasurement file\n")
        (generated / "basis_0.csv").write_text("not,a\nbasis file\n")
        io.write_complex_csv(generated / "basis_1.csv", np.ones(3))
        payload = json.loads((generated / "instance.json").read_text())
        payload["metadata"]["rho"] = 3.5
        io.write_json(generated / "instance.json", payload)
        assert main(["reconstruct", "--config", str(run2)]) == 0
        outputs = sorted(p.name for p in (tmp_path / "rec1").iterdir())
        assert outputs == sorted(p.name for p in (tmp_path / "rec2").iterdir())
        for name in outputs:
            assert read_bytes(tmp_path / "rec1" / name) == read_bytes(tmp_path / "rec2" / name)

    def test_joint_flag_writes_coefficients(self, tmp_path, generated):
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec")
        rc = main(["reconstruct", "--config", str(run), "--joint", "--max-cycles", "20"])
        assert rc == 0
        summary = json.loads((tmp_path / "rec" / "summary.json").read_text())
        assert summary["joint"]
        assert summary["metadata"]["guarantee"].startswith("experimental")
        assert (tmp_path / "rec" / "result_coefficients.csv").exists()

    def test_written_tables_take_the_loadtxt_path(self, tmp_path, generated, loadtxt_only):
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec")
        assert main(["reconstruct", "--config", str(run), "--joint", "--max-cycles", "5"]) == 0
        spec = io.load_instance(generated).spec
        rec = tmp_path / "rec"
        io.read_complex_csv(rec / "result.csv")
        io.read_coefficients_csv(rec / "result_coefficients.csv", spec.r_num, spec.b_num)
        steps = io._read_table(rec / "trace.csv", io._TRACE)[0]
        assert steps.size == 5 * spec.r_num

    def test_overflowing_mask_index_is_io_error(self, tmp_path, generated):
        edit_file(generated / "mask.csv", replace_line(2, TOO_BIG))
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec")
        assert main(["reconstruct", "--config", str(run)]) == 4

    @pytest.mark.parametrize("target", ["mask.csv", "run.json"])
    def test_undecodable_bytes_are_io_error(self, tmp_path, generated, capsys, target):
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec")
        path = run if target == "run.json" else generated / target
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        assert main(["reconstruct", "--config", str(run)]) == 4
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("edit", BAD_INSTANCE_FILES)
    def test_bad_instance_metadata_is_io_error(self, tmp_path, generated, capsys, edit):
        path = generated / "instance.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec")
        assert main(["reconstruct", "--config", str(run)]) == 4
        assert f"{path}: " in capsys.readouterr().err
        probe = tmp_path / "probe.json"
        probe.write_text(json.dumps({"instance": str(generated), "targets": ["linear"]}))
        assert main(["probe-cone", "--config", str(probe), "--out", str(tmp_path)]) == 4
        assert f"{path}: " in capsys.readouterr().err

    def test_wrong_length_initial_image_is_io_error(self, tmp_path, generated, capsys):
        image = tmp_path / "initial.csv"
        io.write_complex_csv(image, np.ones(1))
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec", initial_image=str(image))
        assert main(["reconstruct", "--config", str(run)]) == 4
        assert f"{image}: initial image length does not match grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("record_error", False), ("formats", {"pgm": False}), ("eps_stop", 1e-6)],
        ids=["record_error", "formats", "eps_stop"],
    )
    def test_unknown_run_config_field_is_io_error(self, tmp_path, generated, capsys, field, value):
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec", **{field: value})
        assert main(["reconstruct", "--config", str(run)]) == 4
        assert f"unknown run config fields: ['{field}']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("instance", 3),
            ("method", None),
            ("tau", "3"),
            ("tau", True),
            ("max_cycles", 2.7),
            ("max_cycles", None),
            ("max_cycles", True),
            ("joint", "no"),
            ("joint", 0),
            ("instance", None),
            ("initial_image", 5),
            ("out", ["rec"]),
            ("tau", float("inf")),
            pytest.param("tau", 10**400, id="tau-400-digit-int"),
        ],
    )
    def test_wrong_run_config_field_type_is_io_error(self, tmp_path, generated, capsys, field, value):
        run = tmp_path / "run.json"
        run.write_text(json.dumps({"instance": str(generated), "out": str(tmp_path / "rec"), field: value}))
        assert main(["reconstruct", "--config", str(run)]) == 4
        assert f"{run}: run config field '{field}' must be " in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_missing_instance_is_io_error(self, tmp_path):
        run = write_run_config(tmp_path / "run.json", tmp_path / "ghost", tmp_path / "rec")
        assert main(["reconstruct", "--config", str(run)]) == 4

    def test_bad_tau_is_config_error(self, tmp_path, generated):
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec", tau=1.5)
        assert main(["reconstruct", "--config", str(run)]) == 2

    @pytest.mark.parametrize("tau", ["inf", "1e400", "nan"])
    def test_non_finite_tau_flag_is_config_error(self, tmp_path, generated, capsys, tau):
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec")
        assert main(["reconstruct", "--config", str(run), "--tau", tau]) == 2
        assert "tau must be finite" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize(
        "max_cycles, reason, sweeps", [(None, "stopping-rule", 0), (1, "cycle-cap", 4)]
    )
    def test_final_residuals_come_from_the_trace_after_an_idle_cycle(
        self, tmp_path, generated, monkeypatch, max_cycles, reason, sweeps
    ):
        """A last cycle whose steps all loped left x as it was, so the solve reads the final
        residuals from the trace; a cap stop sweeps once more inside the solve.  The CLI
        runs no transform after the solve in either case."""
        solved = []
        forwards = []

        def run_linear(*args, **kwargs):
            result = mk.run_linear(*args, **kwargs)
            solved.append((args[0], result, len(forwards)))
            return result

        def forward_values(plan, values, out=None):
            forwards.append(values)
            return forward(plan, values, out)

        forward = mk.DftPlan.forward_values
        monkeypatch.setattr(cli, "run_linear", run_linear)
        monkeypatch.setattr(mk.DftPlan, "forward_values", forward_values)
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec")
        flags = [] if max_cycles is None else ["--max-cycles", str(max_cycles)]
        assert main(["reconstruct", "--config", str(run), *flags]) == 0
        monkeypatch.undo()
        (problem, result, in_solve), = solved
        trace = result.trace
        assert len(forwards) == in_solve
        assert in_solve == trace.r_num + trace.n_steps + int(trace.omegas.sum()) + sweeps
        summary = json.loads((tmp_path / "rec" / "summary.json").read_text())
        assert summary["termination_reason"] == reason
        sweep = [
            mk.norm(op.apply(result.final) - y)
            for op, y in zip(problem.operators, problem.measurements.vectors)
        ]
        assert summary["final_residuals"] == sweep

    def test_unscaled_joint_llk_is_config_error(self, tmp_path, generated, capsys):
        # llk is a linear method, so joint llk is refused before any work.
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec")
        assert main(["reconstruct", "--config", str(run), "--joint", "--method", "llk"]) == 2
        assert "joint runs take method 'lsdk' only" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()


class TestProbeConeCommand:
    def test_default_scalar_probe(self, tmp_path):
        assert main(["probe-cone", "--out", str(tmp_path), "--seed", "1"]) == 0
        report = json.loads((tmp_path / "cone_report.json").read_text())
        assert report["scalar"]["max_ratio"] >= 1 - 1e-9
        assert report["scalar"]["exceeds_half"]
        assert "linear" not in report

    def test_instance_probe_sections(self, tmp_path, generated):
        cfgpath = tmp_path / "probe.json"
        with open(cfgpath, "w") as fh:
            json.dump({"instance": str(generated), "samples": 20, "seed": 2}, fh)
        assert main(["probe-cone", "--config", str(cfgpath), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "cone_report.json").read_text())
        assert report["linear"]["max_ratio"] <= 1e-10
        assert not report["linear"]["exceeds_half"]
        assert report["joint"]["exceeds_half"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("instance", 3),
            ("targets", "scalar"),
            ("targets", ["scalar", 1]),
            ("samples", "20"),
            ("samples", 20.0),
            ("samples", True),
            ("radius", "1"),
            ("radius", None),
            ("radius", float("nan")),
            ("seed", 1.5),
        ],
    )
    def test_wrong_probe_config_field_type_is_io_error(self, tmp_path, capsys, field, value):
        cfgpath = tmp_path / "probe.json"
        cfgpath.write_text(json.dumps({field: value}))
        assert main(["probe-cone", "--config", str(cfgpath), "--out", str(tmp_path / "out")]) == 4
        assert f"{cfgpath}: probe config field '{field}' must be " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_samples_usage_error(self, tmp_path):
        cfgpath = tmp_path / "probe.json"
        with open(cfgpath, "w") as fh:
            json.dump({"samples": 0}, fh)
        assert main(["probe-cone", "--config", str(cfgpath), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("field, value", [("samples", 0), ("radius", 0), ("radius", -1.5)])
    def test_bad_sampling_is_usage_error_before_the_instance_is_read(self, tmp_path, capsys, field, value):
        cfgpath = tmp_path / "probe.json"
        cfgpath.write_text(json.dumps({field: value, "instance": str(tmp_path / "nonexistent")}))
        assert main(["probe-cone", "--config", str(cfgpath), "--out", str(tmp_path / "out")]) == 2
        assert "cannot open" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

