"""The README's field lists and quoted messages match what the code defines."""

import dataclasses
import re
from pathlib import Path

import pytest

import mrikacz as mk
from mrikacz import cli, io
from mrikacz.errors import ConfigurationError

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def listed(pattern):
    """The backquoted names in the README text that ``pattern``'s first group matches."""
    match = re.search(pattern, README, re.S)
    assert match, pattern
    return set(re.findall(r"`(\w+)`", match.group(1)))


def json_fields(*kinds):
    """Names of the spec, run and probe config fields of one of ``kinds``, null allowed or not."""
    whats = {what for what, _ in kinds}
    tables = (io._SPEC_FIELDS, cli._RUN_FIELDS, cli._PROBE_FIELDS)
    return {
        name
        for table in tables
        for name, (what, _) in table.items()
        if what.removesuffix(" or null") in whats
    }


def test_solver_config_fields_match_the_module_table():
    assert listed(r"`SolverConfig` \(([^)]*)\)") == {
        f.name for f in dataclasses.fields(mk.SolverConfig)
    }


def test_solve_result_fields_match_the_dataclass():
    assert listed(r"`SolveResult` \(([^)]*)\)") == {f.name for f in dataclasses.fields(mk.SolveResult)}


def test_json_integers_match_the_field_kinds():
    assert listed(r"Integers: (.*?)\.") == json_fields(io.INTEGER)


def test_json_numbers_match_the_field_kinds():
    assert listed(r"Numbers:(.*?)\.") == json_fields(io.NUMBER, io.NUMBERS)


def test_llk_message_is_the_one_run_linear_raises():
    quoted = re.search(r"`(llk requires [^`]*)`", README)
    assert quoted
    pattern = re.escape(" ".join(quoted.group(1).split()))
    pattern = pattern.replace("<i>", r"\d+").replace("<b>", r"[0-9.e+-]+")
    problem = mk.synthesize(mk.InstanceSpec(p_hor=4, p_ver=4, seed=1)).linear_problem()
    with pytest.raises(ConfigurationError) as exc_info:
        mk.run_linear(problem, mk.SolverConfig(method="llk"))
    assert re.fullmatch(pattern, str(exc_info.value))
