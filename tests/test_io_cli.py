import json
from pathlib import Path

import numpy as np
import pytest

import mrikacz as mk
from mrikacz import io
from mrikacz.cli import RunConfig, _write_failure, main
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


# Columns of the four CSV readers' files in an 8x8, r_num=2, b_num=2 instance
# (64 image rows, 4 coefficient rows, 32 mask and measurement rows).
GT, MASK, COEF, MEAS = "ground_truth.csv", "mask.csv", "coefficients.csv", "measurements_0.csv"
CSV_COLUMNS = {
    GT: ("index", "re", "im"),
    MASK: ("index",),
    COEF: ("receiver", "n", "re", "im"),
    MEAS: ("t", "index", "re", "im"),
}
INT_COLUMNS = {"index", "t", "receiver", "n"}
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
    corruption(MEAS, replace_line(4, "2,5,0.5"), 4, "expected 4 fields, got 3", "short-row"),
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
    corruption(MEAS, set_field(4, 0, "5"), 4, "disagrees with mask: t=5", "t-mask"),
    corruption(MEAS, set_field(4, 1, "-1"), 4, "disagrees with mask: t=2, index=-1", "index-mask"),
    corruption(GT, drop_last, None, "ground truth length does not match grid", "row-count"),
    corruption(COEF, drop_last, None, "expected 4 rows, got 3", "row-count"),
    corruption(MEAS, repeat_last, None, "expected 32 rows, got 33", "row-count"),
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
        for a, b in zip(loaded.model.basis, inst.model.basis):
            np.testing.assert_array_equal(a.values, b.values)
        assert loaded.truth.rho == inst.truth.rho

    @pytest.mark.parametrize("mask_family", ["full", "rows", "random"])
    @pytest.mark.parametrize("side", [8, 6], ids=["8x8", "6x6"])
    def test_exact_data_derived_bit_for_bit_without_the_files(self, tmp_path, mask_family, side):
        spec = mk.InstanceSpec(p_hor=side, p_ver=side, r_num=3, b_num=2, mask_family=mask_family, seed=5)
        inst = mk.synthesize(spec)
        io.write_instance(inst, tmp_path)
        written = []
        for i in range(spec.r_num):
            path = tmp_path / f"measurements_exact_{i}.csv"
            written.append(io.read_measurements_csv(path, inst.mask).values)
            path.unlink()
        loaded = io.load_instance(tmp_path)
        for derived, values in zip(loaded.truth.exact.vectors, written):
            np.testing.assert_array_equal(derived.values.view(np.uint64), values.view(np.uint64))
        np.testing.assert_array_equal(loaded.truth.exact.deltas, np.zeros(spec.r_num))

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
        text = path.read_text().splitlines()
        assert text[0] == "P2"
        assert text[1] == "2 2"
        assert text[2] == "255"
        # max modulus 4 maps to 255; 3 -> round(191.25); |2+2i| -> round(180.3)
        assert text[3].split() == ["0", "191"]
        assert text[4].split() == ["255", "180"]

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
        assert {"instance.json", "ground_truth.csv", "mask.csv", "coefficients.csv"} <= names
        assert {f"measurements_{i}.csv" for i in range(4)} <= names
        assert {f"measurements_exact_{i}.csv" for i in range(4)} <= names
        assert {f"basis_{n}.csv" for n in range(2)} <= names

    def test_zero_noise_files_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", deltas=0.0)
        out = tmp_path / "inst"
        main(["generate", "--config", str(spec), "--out", str(out)])
        for i in range(4):
            assert read_bytes(out / f"measurements_{i}.csv") == read_bytes(
                out / f"measurements_exact_{i}.csv"
            )

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

    def test_failure_summary_reads_the_partial_trace(self, tmp_path, generated):
        problem = io.load_instance(generated).linear_problem()
        config = mk.SolverConfig(step_size_override=1e308, max_cycles=5)
        with pytest.raises(NumericalFailure) as exc_info, np.errstate(over="ignore", invalid="ignore"):
            mk.run_linear(problem, config)
        trace = exc_info.value.trace
        assert trace.n_steps >= 1
        _write_failure(tmp_path, RunConfig(instance_dir=str(generated)), exc_info.value)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_steps"] == trace.n_steps
        assert summary["n_cycles"] == trace.n_cycles
        expected = [None] * 4
        for i, residual in zip(trace.receivers, trace.residuals):
            expected[i] = float(residual)
        assert summary["last_finite_residuals"] == expected

    def test_corrupt_exact_data_file_changes_no_output(self, tmp_path, generated):
        run1 = write_run_config(tmp_path / "run1.json", generated, tmp_path / "rec1")
        run2 = write_run_config(tmp_path / "run2.json", generated, tmp_path / "rec2")
        assert main(["reconstruct", "--config", str(run1)]) == 0
        (generated / "measurements_exact_0.csv").write_text("not,a\nmeasurement file\n")
        assert main(["reconstruct", "--config", str(run2)]) == 0
        for name in ("trace.csv", "result.csv"):
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
        instance = io.load_instance(generated)
        spec = instance.spec
        for i in range(spec.r_num):
            io.read_measurements_csv(generated / f"measurements_exact_{i}.csv", instance.mask)
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

    def test_missing_instance_is_io_error(self, tmp_path):
        run = write_run_config(tmp_path / "run.json", tmp_path / "ghost", tmp_path / "rec")
        assert main(["reconstruct", "--config", str(run)]) == 4

    def test_bad_tau_is_config_error(self, tmp_path, generated):
        run = write_run_config(tmp_path / "run.json", generated, tmp_path / "rec", tau=1.5)
        assert main(["reconstruct", "--config", str(run)]) == 2


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

    def test_zero_samples_usage_error(self, tmp_path):
        cfgpath = tmp_path / "probe.json"
        with open(cfgpath, "w") as fh:
            json.dump({"samples": 0}, fh)
        assert main(["probe-cone", "--config", str(cfgpath), "--out", str(tmp_path)]) == 2

