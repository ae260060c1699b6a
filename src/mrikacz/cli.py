"""Command-line front end.

Subcommands: ``generate`` (synthesize an instance directory), ``reconstruct``
(run a solver on an instance and emit trace/summary/image files),
and ``probe-cone`` (sample tangential-cone ratios).  Exit codes: 0 success,
2 configuration/usage error, 3 numerical failure, 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import io
from .errors import ConfigurationError, FileFormatError, NumericalFailure
from .grid import norm  # unused here; perfbench/tracer.py patches mrikacz.cli.norm (ROADMAP item 8)
from .operators import ScalarProductModel, cone_probe, rescale_problem
from .phantoms import synthesize
from .solvers import METHOD_LLK, METHOD_LSDK, SolverConfig, run_joint, run_linear

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


_RUN_FIELDS = {
    "instance": io.STRING,
    "method": io.STRING,
    "tau": io.NUMBER,
    "max_cycles": io.INTEGER,
    "joint": io.BOOLEAN,
    "initial_image": io.nullable(io.STRING),
    "out": io.STRING,
}


# Run config fields passed on to SolverConfig under the same names; a field
# left out takes SolverConfig's default.
_SOLVER_FIELDS = ("method", "tau", "max_cycles")


def _load_run_config(path) -> dict:
    """The checked run config, with ``tau`` as a float."""
    payload = io.check_fields(path, io.read_json(path), _RUN_FIELDS, "run config")
    if "instance" not in payload:
        raise FileFormatError(path, "run config must name an 'instance' directory")
    if "tau" in payload:
        payload["tau"] = float(payload["tau"])
    return payload


def cmd_generate(args) -> int:
    spec = io.read_instance_spec(args.config)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    instance = synthesize(spec)
    written = io.write_instance(instance, args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return EXIT_OK


def _write_failure(out, exc):
    """Write the partial trace and a summary of how far the run got before ``exc``."""
    trace = exc.trace  # every failure of run_linear and run_joint carries one
    io.write_trace_csv(out / "trace.csv", trace)
    summary = {
        "failure": str(exc),
        "termination_reason": "numerical-failure",
        "n_steps": trace.n_steps,
        "n_cycles": trace.n_cycles,
        "last_finite_residuals": trace.last_residuals,
    }
    io.write_json(out / "summary.json", summary)


def cmd_reconstruct(args) -> int:
    cfg = _load_run_config(args.config)
    overrides = {
        "method": args.method,
        "tau": args.tau,
        "max_cycles": args.max_cycles,
        "joint": args.joint,
        "out": args.out,
    }
    cfg.update((name, value) for name, value in overrides.items() if value is not None)
    joint = cfg.get("joint", False)
    if joint and cfg.get("method") == METHOD_LLK:
        raise ConfigurationError("joint runs take method 'lsdk' only: llk is a linear method")

    instance = io.load_instance(cfg["instance"])
    initial = None
    if cfg.get("initial_image") is not None:
        initial = io.read_image_csv(cfg["initial_image"], instance.spec.grid, "initial image")
    solver_cfg = SolverConfig(
        initial_image=initial, **{name: cfg[name] for name in _SOLVER_FIELDS if name in cfg}
    )
    out = Path(cfg.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)

    scaling = None
    try:
        if joint:
            problem = instance.joint_problem()
            result = run_joint(problem, solver_cfg)
            final_image = result.final.image
        else:
            problem = instance.linear_problem()
            if solver_cfg.method == METHOD_LLK:
                problem, scaling = rescale_problem(problem)
            result = run_linear(problem, solver_cfg, reference=instance.truth.image)
            final_image = result.final
    except NumericalFailure as exc:
        _write_failure(out, exc)
        raise

    summary = {
        "instance": str(cfg["instance"]),
        "method": solver_cfg.method,
        "joint": joint,
        "tau": solver_cfg.tau,
        "max_cycles": solver_cfg.max_cycles,
        "seed": instance.spec.seed,
        "k_star": result.trace.k_star,
        "termination_reason": result.reason,
        "n_cycles": result.trace.n_cycles,
        "n_steps": result.trace.n_steps,
        "deltas": [float(d) for d in problem.measurements.deltas],
        "final_residuals": result.final_residuals,
        "tau_delta_bounds": result.tau_delta_bounds,
        "discrepancy_ok": result.discrepancy_ok,
        "metadata": result.metadata,
        "scaling": None if scaling is None else scaling.as_dict(),
    }
    io.write_json(out / "summary.json", summary)
    io.write_trace_csv(out / "trace.csv", result.trace)
    io.write_complex_csv(out / "result.csv", final_image.values)
    if joint:
        io.write_coefficients_csv(out / "result_coefficients.csv", result.final.coefficients)
    io.write_pgm(out / "result_magnitude.pgm", final_image)
    print(
        f"{solver_cfg.method}{' joint' if joint else ''}: {result.reason} after "
        f"{result.trace.n_cycles} cycles (k* = {result.trace.k_star})"
    )
    return EXIT_OK


_PROBE_TARGETS = ("scalar", "linear", "joint")

_PROBE_FIELDS = {
    "instance": io.nullable(io.STRING),
    "targets": io.nullable(io.STRINGS),
    "samples": io.INTEGER,
    "radius": io.NUMBER,
    "seed": io.INTEGER,
}


def cmd_probe_cone(args) -> int:
    payload = io.read_json(args.config) if args.config else {}
    io.check_fields(args.config, payload, _PROBE_FIELDS, "probe config")
    samples = payload.get("samples", 200)
    radius = float(payload.get("radius", 1.0))
    seed = args.seed if args.seed is not None else payload.get("seed", 0)
    instance_dir = payload.get("instance")
    targets = payload.get("targets")
    if targets is None:
        targets = _PROBE_TARGETS if instance_dir else ("scalar",)
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    if radius <= 0:
        raise ConfigurationError("radius must be > 0")
    if any(t not in _PROBE_TARGETS for t in targets):
        raise ConfigurationError(f"targets must be among scalar/linear/joint, got {targets}")
    needs_instance = any(t != "scalar" for t in targets)
    if instance_dir is None and needs_instance:
        raise ConfigurationError("linear/joint probes need an instance directory")

    report = {"samples": samples, "radius": radius, "seed": seed}
    if needs_instance:
        instance = io.load_instance(instance_dir)
        report["instance"] = str(instance_dir)
    for name in _PROBE_TARGETS:
        if name not in targets:
            continue
        if name == "scalar":
            target = ScalarProductModel()
        elif name == "linear":
            target = list(instance.operators)
        else:
            target = list(instance.joint_problem().operators)
        section = report[name] = cone_probe(
            target, radius=radius, samples=samples, seed=seed
        ).as_dict()
        if section["degenerate"]:
            print(f"warning: {name} probe sampling was degenerate", file=sys.stderr)
        print(
            f"{name}: max ratio = {section['max_ratio']}, "
            f"exceeds 1/2 = {section['exceeds_half']}"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_json(out / "cone_report.json", report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrikacz",
        description="Loping Kaczmarz-type reconstruction for multi-receiver k-space data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize an instance directory from a spec JSON")
    g.add_argument("--config", required=True, help="instance spec JSON file")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int, default=None, help="override the spec seed")
    g.set_defaults(func="cmd_generate")

    r = sub.add_parser("reconstruct", help="run a solver on a generated instance")
    r.add_argument("--config", required=True, help="run config JSON file")
    r.add_argument("--out", default=None, help="output directory (overrides config)")
    r.add_argument("--method", choices=[METHOD_LLK, METHOD_LSDK], default=None)
    r.add_argument("--joint", action="store_true", default=None, help="joint image+coefficients run")
    r.add_argument("--tau", type=float, default=None)
    r.add_argument("--max-cycles", type=int, default=None)
    r.set_defaults(func="cmd_reconstruct")

    c = sub.add_parser("probe-cone", help="sample tangential-cone ratios")
    c.add_argument("--config", default=None, help="probe config JSON file")
    c.add_argument("--out", default=".", help="output directory")
    c.add_argument("--seed", type=int, default=None)
    c.set_defaults(func="cmd_probe_cone")

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # By name, so that a cmd_* function rebound after import is the one called.
        return globals()[args.func](args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
