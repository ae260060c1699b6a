"""Every script in ``demos/`` runs to the end against the current package."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch):
    # Demo 01 writes a PGM into the working directory.
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
