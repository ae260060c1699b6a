"""In-memory span tracer that wraps the public functions of each mrikacz module.

A span is (name, start, end, parent, job id).  Spans are kept in flat
arrays while the benchmark runs and written out once at the end.  Each name
is patched where its caller looks it up: ``cli`` imports ``run_linear``,
``run_joint``, ``rescale_problem``, ``synthesize`` and ``norm`` by name, so
those are patched on ``mrikacz.cli``; ``operators`` imports the transform
helpers by name, so the transform layer is traced on ``DftPlan`` methods
instead.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

import mrikacz.cli
import mrikacz.grid
import mrikacz.io
import mrikacz.operators
from mrikacz.grid import KSpaceMask
from mrikacz.operators import JointForward, LinearForward
from mrikacz.transform import DftPlan

IO_WRITERS = ("write_json", "write_trace_csv", "write_complex_csv", "write_coefficients_csv", "write_pgm")

# (owner, attribute, span name)
SPANS = (
    (mrikacz.cli, "cmd_generate", "cli.generate"),
    (mrikacz.cli, "cmd_reconstruct", "cli.reconstruct"),
    (mrikacz.cli, "synthesize", "phantoms.synthesize"),
    (mrikacz.cli, "rescale_problem", "operators.rescale"),
    (mrikacz.cli, "run_linear", "solvers.solve"),
    (mrikacz.cli, "run_joint", "solvers.solve"),
    (mrikacz.io, "load_instance", "io.load_instance"),
    (mrikacz.io, "write_instance", "io.write_instance"),
    *((mrikacz.io, name, "io.write") for name in IO_WRITERS),
    (DftPlan, "__post_init__", "transform.plan"),
    (DftPlan, "forward_values", "transform.forward"),
    (DftPlan, "adjoint_values", "transform.adjoint"),
    (mrikacz.operators, "estimate_norm", "operators.estimate_norm"),
    (LinearForward, "apply", "operators.apply"),
    (JointForward, "apply", "operators.apply"),
    (LinearForward, "adjoint", "operators.adjoint"),
    (JointForward, "derivative", "operators.joint_derivative"),
    (JointForward, "adjoint_derivative", "operators.joint_adjoint_derivative"),
    (KSpaceMask, "matches", "grid.mask_matches"),
)

# Called too often, and too cheaply, for a span: counted only.
COUNTS = (
    (mrikacz.grid, "norm", "grid.norm"),
    (mrikacz.cli, "norm", "grid.norm"),
)


class Tracer:
    """Records spans of the wrapped functions while active (a context manager)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.job_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def count(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.job_id, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self):
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))
        for owner, attr, name in COUNTS:
            self._patch(owner, attr, self.count(getattr(owner, attr), name))
        return self

    def _patch(self, owner, attr, fn):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, fn)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def job_stats(tracer: Tracer) -> dict:
    """Per job id: {name: (calls, total seconds, total self seconds)}.

    Self time is a span's duration minus the durations of its direct
    children.  Derived entries: ``io.write_outputs`` (writers called
    directly by ``cli.reconstruct``), ``transforms_in_solve`` (transforms
    under a solve span but outside norm estimation) and ``norm_in_solve``
    (norm estimation under a solve span: the llk unit-norm check).
    """
    a = tracer.arrays()
    name, parent, job = a["name"], a["parent"], a["job"]
    n = name.size
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child

    def nid(label):
        return tracer._name_ids.get(label, -1)

    def under(label):
        # Parents precede children, so flags settle after (depth) passes.
        flag = np.zeros(n, dtype=bool)
        while True:
            new = has_parent & (flag[safe_parent] | (name[safe_parent] == nid(label)))
            if np.array_equal(new, flag):
                return flag
            flag = new

    extra = {
        "io.write_outputs": (name == nid("io.write")) & has_parent & (name[safe_parent] == nid("cli.reconstruct")),
        "transforms_in_solve": np.isin(name, [nid("transform.forward"), nid("transform.adjoint")])
        & under("solvers.solve")
        & ~under("operators.estimate_norm"),
        "norm_in_solve": (name == nid("operators.estimate_norm")) & under("solvers.solve"),
    }
    labels = list(tracer.names) + list(extra)
    key_name = name.astype(np.int64)
    codes, inverse = np.unique(job, return_inverse=True)
    width = len(labels)
    keys = [inverse * width + key_name]
    masks = [np.ones(n, dtype=bool)]
    for k, m in enumerate(extra.values()):
        keys.append(inverse[m] * width + len(tracer.names) + k)
        masks.append(m)
    key = np.concatenate(keys)
    d = np.concatenate([dur[m] for m in masks])
    s = np.concatenate([self_time[m] for m in masks])
    size = len(codes) * width
    calls = np.bincount(key, minlength=size).reshape(len(codes), width)
    total = np.bincount(key, weights=d, minlength=size).reshape(len(codes), width)
    selfs = np.bincount(key, weights=s, minlength=size).reshape(len(codes), width)
    out = {
        int(code): {
            label: (int(calls[r, c]), float(total[r, c]), float(selfs[r, c]))
            for c, label in enumerate(labels)
        }
        for r, code in enumerate(codes)
    }
    for (j, label), c in tracer.counts.items():
        out.setdefault(j, {})[label] = (c, 0.0, 0.0)
    return out
