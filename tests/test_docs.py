"""The README's inline call signatures name the parameters of the code,
its config file schema lists every config field with its default, and its
flag line lists each choice of ``--algo`` and ``--scenario``."""

from __future__ import annotations

import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

import qflow
from qflow.experiments import SCENARIO_NAMES, ExperimentConfig
from qflow.simulation import ALLOCATOR_NAMES

README = Path(__file__).resolve().parents[1] / "README.md"
# Inline calls that name no qflow callable: the scorer's returned closures
# and a builtin.
NOT_QFLOW = {"fold", "score", "walk", "skim", "skip", "len"}
CALL = re.compile(r"`([A-Za-z_][\w.]*)\(([^`\n]*)\)`")
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
SCHEMA = re.compile(r"^## Config file schema$.*?^```json$(.*?)^```$", re.MULTILINE | re.DOTALL)


def callables(name: str) -> list:
    """The exported qflow functions and methods of exported classes called
    ``name``."""
    found = []
    for exported in vars(qflow).values():
        if inspect.isfunction(exported) and exported.__name__ == name:
            target = exported
        elif (
            inspect.isclass(exported) and exported.__module__.startswith("qflow")
            and inspect.getattr_static(exported, name, None) is not None and callable(getattr(exported, name))
        ):
            target = getattr(exported, name)
        else:
            continue
        if target not in found:
            found.append(target)
    return found


def parameter_names(func) -> list[str]:
    names = list(inspect.signature(func).parameters)
    return names[1:] if names[:1] == ["self"] else names


def mismatches(text: str) -> list[str]:
    """One line per inline ``name(args)`` in ``text`` (fenced blocks
    skipped) whose argument names are not exactly the parameter names of
    the one qflow callable it names, or that names none."""
    found = []
    for match in CALL.finditer(FENCE.sub("", text)):
        name = match.group(1).rsplit(".", 1)[-1]
        if name in NOT_QFLOW:
            continue
        listed = [arg.split("=")[0].strip().lstrip("*") for arg in match.group(2).split(",") if arg.strip()]
        targets = callables(name)
        if len(targets) != 1:
            found.append(f"{match.group(0)}: names {len(targets)} qflow callables, not one")
        elif listed != parameter_names(targets[0]):
            found.append(f"{match.group(0)}: the code takes ({', '.join(parameter_names(targets[0]))})")
    return found


def test_readme_signatures_match_the_code():
    text = README.read_text(encoding="utf-8")
    assert CALL.search(FENCE.sub("", text))  # the check reads something
    assert mismatches(text) == []


def test_a_stale_or_unknown_signature_is_reported():
    stale = "`group_scorer(weights, v)` and `breakdown(candidate, weights)`"
    assert mismatches(stale) == ["`group_scorer(weights, v)`: the code takes (weights, u, v)"]
    assert mismatches("`group_scorer(weights, u, v)` then `fold(prefix)`, `score(hu, mask)`") == []
    assert mismatches("`frobnicate(x)`") == ["`frobnicate(x)`: names 0 qflow callables, not one"]


def test_config_schema_lists_every_field_with_its_default():
    block = SCHEMA.search(README.read_text(encoding="utf-8")).group(1)
    defaults = json.loads(json.dumps(dataclasses.asdict(ExperimentConfig())))
    assert json.loads(block) == defaults


@pytest.mark.parametrize("flag, names", [("--algo", ALLOCATOR_NAMES), ("--scenario", SCENARIO_NAMES)])
def test_flag_line_lists_every_choice_in_order(flag, names):
    lists = re.findall(rf"`{flag} \{{([^}}`]*)\}}`", README.read_text(encoding="utf-8"))
    assert [tuple(choices.split(",")) for choices in lists] == [names]
