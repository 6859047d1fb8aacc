"""README tables that list what the code reads or exports are checked
against the code, so that neither can change without the other."""

import importlib
import re
from pathlib import Path

import pytest

from zicount.bench import _CHECKS, _SPECS, Experiment
from zicount.cli import scenario_parameters
from zicount.synth import Setting

from test_exports import REEXPORTED

README = Path(__file__).resolve().parents[1] / "README.md"


def table_rows(header: str) -> dict:
    """{name: [keys]} of the README table under ``header``: the backticked
    names of each row's first cell, each given the backticked keys of its
    second cell."""
    lines = README.read_text().splitlines()
    start = lines.index(header) + 2  # past the header and the separator row
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        _, names, keys, _ = line.split("|")
        for name in re.findall(r"`([^`]+)`", names):
            assert name not in rows, f"{name} has two rows"
            rows[name] = re.findall(r"`([^`]+)`", keys)
    return rows


@pytest.mark.parametrize(
    "header, expected",
    [
        (
            "| experiment | keys it reads |",
            {experiment.value: list(_SPECS[experiment].keys) for experiment in Experiment},
        ),
        (
            "| scenario | parameters it reads, with the value of an omitted one |",
            {setting.value: list(scenario_parameters(setting)) for setting in Setting},
        ),
        (
            "| module | names |",
            {name: list(importlib.import_module(f"zicount.{name}").__all__) for name in REEXPORTED},
        ),
        ("| key | accepted values |", dict.fromkeys(_CHECKS, [])),
    ],
    ids=["experiment keys", "simulate parameters", "package exports", "checked keys"],
)
def test_readme_table_lists_what_the_code_reads(header, expected):
    assert table_rows(header) == expected
