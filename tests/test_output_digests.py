"""Every byte the command-line tool writes is the recorded one.

c11 and ``test_determinism.py`` compare two runs of the same code, so a
change that moves every output the same way passes them.  This test keeps
the sha256 of each file that ``generate``, ``reconstruct`` and
``probe-cone`` write for the small seeded runs of
``tests/data/output_digests.py``.  FFT and summation bits may differ between
numpy builds, so on another numpy version or machine it skips.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("output_digests", DATA / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_recorded_digests(digests, tmp_path, monkeypatch, capsys):
    table = json.loads(digests.TABLE.read_text())
    recorded = {key: table[key] for key in ("numpy", "machine")}
    here = digests.environment()
    if here != recorded:
        pytest.skip(
            f"digests recorded with numpy {recorded['numpy']} on {recorded['machine']}; "
            f"this is numpy {here['numpy']} on {here['machine']}"
        )
    monkeypatch.chdir(tmp_path)
    got = digests.outputs()
    capsys.readouterr()
    moved = sorted(name for name in table["files"] if got.get(name) != table["files"][name])
    extra = sorted(set(got) - set(table["files"]))
    assert not moved and not extra, (
        f"output bytes changed: moved {moved}, new {extra}; if on purpose, re-baseline with "
        "`PYTHONPATH=src python tests/data/output_digests.py` and list the moved files in CHANGES.md"
    )
