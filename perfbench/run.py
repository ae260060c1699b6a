"""Closed-loop generate -> reconstruct benchmark of mrikacz (one client, one job at a time).

Run from the repository root:

    python3 perfbench/run.py --workload llk_scaled --seed 1 --seconds 20 --trace 0

Set-up generates the workload's instance directories through
``mrikacz.cli.main(["generate", ...])``.  The timed phase then runs
``mrikacz.cli.main(["reconstruct", ...])`` jobs back to back, cycling over
the instances, until ``--seconds`` of job time have passed; every job's
outputs are checked after it returns.  Between jobs it re-generates
instances, so that the ``generate`` times behind ``setup_s`` are spread over
the whole phase.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` runs the same jobs untraced and then traced, prints the
per-layer metrics, and checks that the exact counts repeat on a re-run.
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import os

# Pinned before numpy loads OpenBLAS: with its default of one thread per core,
# the dense-matrix transforms swing in time with whatever else runs on the host.
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# The tail is the highest percentile with at least this many jobs beyond it,
# so a run keeps going past --seconds until it has one job more than that,
# and until every instance has run once.
TAIL_BEYOND = 10
# No new job starts after this many seconds of the timed phase, whatever the above says.
# A failed job is charged this long in the job-time percentiles.
HARD_STOP_S = 120.0
# Before each job of an untraced run, one instance is re-generated while the
# summed generate time is at most this share of the summed job time.
GENERATE_SHARE = 0.5
# Jobs re-run traced to check that the exact counts repeat.
RECHECK_JOBS = 2
# Job ids of set-up generate calls in the trace, apart from reconstruct jobs.
GEN_JOB_BASE = 1_000_000
RECHECK_JOB_BASE = 2_000_000

EXACT_COUNTS = (
    "operators.estimate_norm_calls",
    "transform.forward_calls",
    "transform.adjoint_calls",
    "solvers.transforms_per_step",
    "solvers.cycles",
    "solvers.steps",
    "io.bytes_read",
    "io.bytes_written",
)

UNITS = {
    "setup_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "rel_error_mean": "1",
    "verified_frac": "1",
}


@dataclass
class Job:
    instance: int
    seconds: float
    ok: bool
    problems: list
    rel_error: float
    cycles: int = 0
    steps: int = 0
    active_steps: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def provenance(workload, args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_SETTINGS},
        "commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "loop": "closed, 1 client",
    }


def git_commit() -> str:
    """HEAD of the repository at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def read_complex(path: Path):
    import numpy as np

    vals = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
    return vals[:, 0] + 1j * vals[:, 1]


class Bench:
    def __init__(self, workload, seed: int, work: Path):
        import mrikacz.cli

        self.cli_main = mrikacz.cli.main
        self.w = workload
        self.seed = seed
        self.work = work
        self.instances: list[Path] = []
        self.configs: list[Path] = []
        self.truth = {}
        self.digests: dict[int, str] = {}
        self.instance_digests: list[str] = []
        self.job_count = 0
        self.generate_problems: list[str] = []

    def _call(self, argv) -> tuple[int, float]:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = self.cli_main(argv)
            return rc, time.perf_counter() - t0

    def setup(self, tracer=None) -> list[float]:
        """Generate every instance directory; returns the per-instance wall times."""
        times = []
        for j in range(self.w.instances):
            spec = self.work / f"spec{j}.json"
            inst = self.work / f"instance{j}"
            spec.write_text(json.dumps(self.w.spec(self.seed, j)))
            if tracer is not None:
                tracer.job_id = GEN_JOB_BASE + j
            rc, dt = self._call(["generate", "--config", str(spec), "--out", str(inst)])
            if rc != 0:
                raise RuntimeError(f"generate failed with exit code {rc} for instance {j}")
            times.append(dt)
            self.instance_digests.append(dir_digest(inst))
            run = self.work / f"run{j}.json"
            run.write_text(json.dumps({"instance": str(inst), **self.w.run}))
            self.instances.append(inst)
            self.configs.append(run)
            self.truth[j] = read_complex(inst / "ground_truth.csv")
        return times

    def regenerate(self, j: int) -> float:
        """Generate instance ``j`` again into a scratch directory; returns the wall time.

        The new files must equal the set-up ones byte for byte.
        """
        out = self.work / "regenerated"
        shutil.rmtree(out, ignore_errors=True)
        rc, dt = self._call(["generate", "--config", str(self.work / f"spec{j}.json"), "--out", str(out)])
        if rc != 0:
            self.generate_problems.append(f"instance {j}: generate exit code {rc}")
        elif dir_digest(out) != self.instance_digests[j]:
            self.generate_problems.append(f"instance {j}: re-generated files differ")
        return dt

    def run_job(self, j: int, tracer=None, job_id=None, count_steps=False) -> Job:
        import numpy as np

        out = self.work / f"out{self.job_count}"
        self.job_count += 1
        if tracer is not None:
            tracer.job_id = job_id
        t0 = time.perf_counter()
        try:
            rc, dt = self._call(["reconstruct", "--config", str(self.configs[j]), "--out", str(out)])
        except Exception:  # a crash inside the program is a failed job, not a benchmark crash
            traceback.print_exc()
            return Job(j, time.perf_counter() - t0, False, ["raised"], float("nan"))
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        job = Job(j, dt, False, problems, float("nan"))
        try:
            summary = json.loads((out / "summary.json").read_text())
            x = read_complex(out / "result.csv")
            trace_bytes = (out / "trace.csv").read_bytes()
        except (OSError, ValueError) as exc:
            problems.append(f"unreadable outputs: {exc}")
            return job
        truth = self.truth[j]
        if not np.all(np.isfinite(x)):
            problems.append("non-finite result")
        if self.w.joint:
            # The joint model fixes the image only up to a complex factor
            # (c * image, coefficients / c): compare after the best factor.
            x = x * (np.vdot(x, truth) / np.vdot(x, x))
        job.rel_error = float(np.linalg.norm(x - truth) / np.linalg.norm(truth))
        if self.w.joint:
            if not max(summary["final_residuals"]) < summary["metadata"]["initial_max_residual"]:
                problems.append("joint residual did not decrease")
        else:
            if summary.get("termination_reason") != "stopping-rule":
                problems.append(f"termination {summary.get('termination_reason')}")
            if summary.get("discrepancy_ok") is not True:
                problems.append("discrepancy check failed")
        digest = hashlib.sha256(trace_bytes).hexdigest()
        if self.digests.setdefault(j, digest) != digest:
            problems.append("trace.csv differs from an earlier run of the same instance")
        job.cycles, job.steps = int(summary["n_cycles"]), int(summary["n_steps"])
        if count_steps:
            omegas = np.loadtxt(io.BytesIO(trace_bytes), delimiter=",", skiprows=1, usecols=(2,), ndmin=1)
            job.active_steps = int(omegas.sum())
            job.bytes_read = dir_bytes(self.instances[j]) + self.configs[j].stat().st_size
            job.bytes_written = dir_bytes(out)
        job.ok = not problems
        return job

    def timed_loop(self, seconds: float, tracer=None, generate_share=0.0):
        """Jobs back to back over the instances until ``seconds`` of job time have passed.

        With a tracer, every job is followed at once by the same job traced,
        so that both see the same machine state.  With ``generate_share``,
        one instance is re-generated before a job whenever the summed
        generate time is at most that share of the summed job time, so
        before the first job too.  Returns the untraced jobs, the traced
        jobs, the untraced jobs' summed wall time (failed jobs included) and
        the re-generate times; checking outputs between jobs is not counted.
        """
        jobs, traced, generate_times = [], [], []
        busy = 0.0
        min_jobs = max(TAIL_BEYOND + 1, self.w.instances)
        t0 = time.perf_counter()
        while (busy < seconds or len(jobs) < min_jobs) and time.perf_counter() - t0 < HARD_STOP_S:
            k = len(jobs)
            if generate_share and sum(generate_times) <= generate_share * busy:
                generate_times.append(self.regenerate(len(generate_times) % self.w.instances))
            jobs.append(self.run_job(k % self.w.instances))
            busy += jobs[-1].seconds
            if tracer is not None:
                with tracer:
                    traced.append(self.run_job(k % self.w.instances, tracer, job_id=k, count_steps=True))
        return jobs, traced, busy, generate_times


def percentile_tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, jobs) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mrikacz" / "__init__.py").is_file():
        print(f"error: no mrikacz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, work)
        if args.trace:
            result = traced_run(bench, args)
        else:
            result = untraced_run(bench, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print("# provenance " + json.dumps(provenance(workload, args), sort_keys=True))
    print(json.dumps(result))
    return 0


def _summarize_jobs(jobs):
    attempted = len(jobs)
    failed = sum(not j.ok for j in jobs)
    for job in jobs:
        if not job.ok:
            print(f"# failed job on instance {job.instance}: {'; '.join(job.problems)}", file=sys.stderr)
    if failed == attempted:
        raise RuntimeError("no job passed its checks; nothing to measure")
    # A failed job misses every latency limit.
    times = [j.seconds if j.ok else HARD_STOP_S for j in jobs]
    return attempted, failed, times


def untraced_run(bench: Bench, args) -> dict:
    bench.setup()
    jobs, _, elapsed, setup_times = bench.timed_loop(args.seconds, generate_share=GENERATE_SHARE)
    for problem in bench.generate_problems:
        print(f"# generate check failed: {problem}", file=sys.stderr)
    attempted, failed, times = _summarize_jobs(jobs)
    if attempted <= bench.w.instances:
        # No instance ran twice: repeat one, untimed, for the determinism check.
        extra = bench.run_job(0)
        failed += not extra.ok
        attempted += 1
    tail, pct, n = percentile_tail(times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail,
        "jobs_per_s": sum(j.ok for j in jobs) / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rel_error_mean": statistics.fmean({j.instance: j.rel_error for j in jobs if j.ok}.values()),
        "verified_frac": (attempted - failed) / attempted,
    }
    print(
        f"# {bench.w.name} seed {args.seed}: {bench.w.instances} instances, {len(jobs)} jobs "
        f"in {elapsed:.2f} s (closed loop, 1 client)"
    )
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setup_times)} generate calls spread over the timed phase)"
        elif name == "job_s_tail":
            note = f"  (p{pct:.1f} of {n} jobs)"
        print(f"{name:<16} {value:.6g} {UNITS[name]}{note}")
    print(f"{'fail_frac':<16} {failed / attempted:.6g} 1  ({failed} of {attempted})")
    return {
        "correct": failed == 0 and not bench.generate_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()},
    }


def layer_metrics(stats: dict, job: Job) -> dict:
    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    solve_s = total("solvers.solve")
    transform_self = self_s("transform.plan") + self_s("transform.forward") + self_s("transform.adjoint")
    return {
        "cli.reconstruct_s": total("cli.reconstruct"),
        "cli.self_s": self_s("cli.reconstruct"),
        "io.load_instance_s": total("io.load_instance"),
        "io.write_outputs_s": total("io.write_outputs"),
        "io.bytes_read": job.bytes_read,
        "io.bytes_written": job.bytes_written,
        "transform.plan_s": total("transform.plan"),
        "transform.forward_calls": calls("transform.forward"),
        "transform.adjoint_calls": calls("transform.adjoint"),
        "transform.forward_s": self_s("transform.forward"),
        "transform.adjoint_s": self_s("transform.adjoint"),
        "transform.share": transform_self / job.seconds,
        "operators.estimate_norm_calls": calls("operators.estimate_norm"),
        "operators.estimate_norm_s": total("operators.estimate_norm"),
        "operators.rescale_s": total("operators.rescale"),
        "operators.apply_calls": calls("operators.apply"),
        "operators.adjoint_calls": calls("operators.adjoint"),
        "operators.apply_self_s": self_s("operators.apply"),
        "operators.adjoint_self_s": self_s("operators.adjoint"),
        "operators.joint_derivative_calls": calls("operators.joint_derivative"),
        "operators.joint_adjoint_derivative_calls": calls("operators.joint_adjoint_derivative"),
        "operators.joint_adjoint_derivative_self_s": self_s("operators.joint_adjoint_derivative"),
        "solvers.solve_s": solve_s,
        "solvers.self_s": self_s("solvers.solve"),
        "solvers.cycles": job.cycles,
        "solvers.steps": job.steps,
        "solvers.active_step_frac": job.active_steps / job.steps,
        "solvers.steps_per_s": job.steps / (solve_s - total("norm_in_solve")),
        "solvers.transforms_per_step": calls("transforms_in_solve") / job.steps,
        "grid.mask_matches_calls": calls("grid.mask_matches"),
        "grid.mask_matches_s": self_s("grid.mask_matches"),
        "grid.norm_calls": calls("grid.norm"),
    }


def layer_unit(name: str) -> str:
    if name == "solvers.steps_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_calls") or name in ("solvers.cycles", "solvers.steps"):
        return "count"
    if name.startswith("io.bytes_"):
        return "B"
    return "1"


def traced_run(bench: Bench, args) -> dict:
    from tracer import Tracer, job_stats

    with Tracer() as tracer:
        setup_times = bench.setup(tracer)
    untraced, traced, _, _ = bench.timed_loop(args.seconds / 2, tracer)
    with tracer:
        recheck = [
            bench.run_job(job.instance, tracer, job_id=RECHECK_JOB_BASE + k, count_steps=True)
            for k, job in enumerate(traced[:RECHECK_JOBS])
        ]
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{bench.w.name}-seed{args.seed}.npz")
    stats = job_stats(tracer)
    jobs = untraced + traced + recheck
    attempted, failed, _ = _summarize_jobs(jobs)

    # Per-layer medians over the first pass, one job per instance, so that
    # two runs with the same seed summarise the same jobs.
    first_pass = traced[: bench.w.instances]
    per_job = {k: layer_metrics(stats.get(k, {}), job) for k, job in enumerate(first_pass) if job.ok}
    mismatched = sorted(
        {
            name
            for k, job in enumerate(recheck)
            if job.ok and k in per_job
            for name in EXACT_COUNTS
            if layer_metrics(stats.get(RECHECK_JOB_BASE + k, {}), job)[name] != per_job[k][name]
        }
    )
    if mismatched:
        print(f"# exact counts differ on a traced re-run: {mismatched}", file=sys.stderr)
    rows = list(per_job.values())
    metrics = {name: statistics.median(m[name] for m in rows) for name in rows[0]} if rows else {}
    gen = [stats.get(GEN_JOB_BASE + j, {}) for j in range(len(setup_times))]
    metrics["io.write_instance_s"] = statistics.median(g.get("io.write_instance", (0, 0.0, 0.0))[1] for g in gen)
    metrics["phantoms.synthesize_s"] = statistics.median(g.get("phantoms.synthesize", (0, 0.0, 0.0))[1] for g in gen)
    untraced_p50 = statistics.median(j.seconds for j in untraced)
    traced_p50 = statistics.median(j.seconds for j in traced)
    metrics["trace_overhead"] = traced_p50 / untraced_p50 - 1.0
    print(
        f"# {bench.w.name} seed {args.seed}: {len(traced)} jobs, each run untraced then traced, "
        f"{len(recheck)} re-run traced; counts repeat exactly: {not mismatched}"
    )
    print(f"# trace_overhead {metrics['trace_overhead']:.4f} (traced job_s_p50 {traced_p50:.6g} s "
          f"/ untraced {untraced_p50:.6g} s - 1)")
    for name in sorted(metrics):
        print(f"{name:<44} {metrics[name]:.6g} {layer_unit(name)}")
    return {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": layer_unit(name)} for name, v in sorted(metrics.items())},
    }


if __name__ == "__main__":
    sys.exit(main())
