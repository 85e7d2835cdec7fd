"""Every ``FleetConfig`` field is a knob something beyond the tests sets.

A field that no bench, CLI command, e2e workload, example or library
caller sets to anything but its default is a constant with extra
steps: it belongs in the module that reads it. This scans every
``FleetConfig(...)`` and ``FleetConfig.single_node(...)`` call under
``src/``, ``benchmarks/`` and ``examples/`` and holds the fields none of
them sets to :data:`TEST_ONLY`, the few that tests set to reach states
a short trace would not otherwise reach. A new field nothing sets, or a
listed field that a caller starts to set, fails here.
"""

import ast
import dataclasses
from pathlib import Path

from repro.serving import FleetConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "examples")

#: Fields only tests set, each with the tests that need it.
TEST_ONLY = {
    "min_shards": "the drain-race and scale-down tests drain to one or "
    "two shards",
    "autoscale_interval_s": "the drain-race and scale-down tests tick "
    "every 1 or 20 ms to drain inside a sub-second trace",
    "scale_up_queue_depth": "the scale-up test spins shards up at a "
    "shallower backlog",
    "scale_down_idle_ticks": "the drain-race and scale-down tests drain "
    "after one or two idle ticks",
    "horizon_pad_s": "the scale-down test ticks on past the last arrival "
    "until idle shards drain",
    "failover_redeal_cap": "the weighted goldens and the re-deal cap test "
    "overflow a cap of 3",
    "tenant_quotas": "the weighted goldens pin per-tenant weights and "
    "rates",
}


def config_calls(tree: ast.AST):
    """Every ``FleetConfig(...)`` / ``FleetConfig.single_node(...)`` call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "FleetConfig":
            yield node
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "single_node"
            and isinstance(func.value, ast.Name)
            and func.value.id == "FleetConfig"
        ):
            yield node


def set_fields():
    """Field names the scanned calls pass, and the calls found."""
    names, calls = set(), []
    for top in SCANNED:
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for call in config_calls(tree):
                where = f"{path.relative_to(REPO_ROOT)}:{call.lineno}"
                calls.append(where)
                for kw in call.keywords:
                    # ``**settings`` would hide which fields it sets.
                    assert kw.arg is not None, f"{where}: ** in a config call"
                    names.add(kw.arg)
    return names, calls


def test_only_the_listed_fields_are_test_only():
    names, calls = set_fields()
    assert calls
    fields = {f.name for f in dataclasses.fields(FleetConfig)}
    assert names <= fields
    assert fields - names == set(TEST_ONLY)
