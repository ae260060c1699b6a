"""Digests of every file the command-line tool writes for a few small seeded runs.

``outputs()`` runs ``generate``, ``reconstruct`` (lsdk, llk and joint lsdk)
and ``probe-cone`` on the specs below, in the current directory with
relative paths, and returns the sha256 of each file written, keyed by its
relative path.  ``tests/test_output_digests.py`` compares them with
``output_digests.json``.

Run this file to rewrite that table when a change moves output bits on
purpose (a re-baseline), and say in the change log which files moved and why:

    PYTHONPATH=src python tests/data/output_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from mrikacz.cli import main

TABLE = Path(__file__).resolve().with_name("output_digests.json")

SPECS = {
    "rows16": {
        "p_hor": 16,
        "p_ver": 16,
        "r_num": 4,
        "basis_family": "harmonics",
        "b_num": 2,
        "mask_family": "rows",
        "mask_fraction": 0.5,
        "phantom_family": "blobs",
        "deltas": 0.01,
        "delta_mode": "relative",
        "seed": 3,
    },
    "random32": {
        "p_hor": 32,
        "p_ver": 32,
        "r_num": 4,
        "basis_family": "harmonics",
        "b_num": 4,
        "mask_family": "random",
        "mask_fraction": 0.5,
        "phantom_family": "blobs",
        "deltas": 0.02,
        "delta_mode": "relative",
        "seed": 7,
    },
}

# (output name, run config fields besides the instance and output directory)
RUNS = (
    ("lsdk", {"method": "lsdk"}),
    ("llk", {"method": "llk"}),
    ("joint", {"method": "lsdk", "joint": True, "max_cycles": 30}),
)

PROBE = {"samples": 8, "radius": 0.5, "seed": 4}


def _write_json(name, payload) -> str:
    Path(name).write_text(json.dumps(payload))
    return name


def _run(argv):
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"mrikacz {' '.join(argv)} exited {code}")


def outputs() -> dict:
    """{relative path: sha256} of every output file, run in the current directory."""
    for name, spec in SPECS.items():
        _run(["generate", "--config", _write_json(f"{name}.spec.json", spec), "--out", name])
        for run, fields in RUNS:
            config = dict(fields, instance=name, out=f"{name}-{run}")
            _run(["reconstruct", "--config", _write_json(f"{name}-{run}.json", config)])
        probe = dict(PROBE, instance=name)
        _run(["probe-cone", "--config", _write_json(f"{name}-probe.json", probe), "--out", f"{name}-probe"])
    written = sorted(
        p for p in Path(".").rglob("*") if p.is_file() and p.parent != Path(".")
    )
    return {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in written}


def environment() -> dict:
    """The numpy version and machine the digests hold for."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def rebaseline():
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            digests = outputs()
        finally:
            os.chdir(here)
    TABLE.write_text(json.dumps(dict(environment(), files=digests), indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    rebaseline()
