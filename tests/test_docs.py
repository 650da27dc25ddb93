"""docs/SCHEMA.md lists every key ``flowfsm run --stats`` writes, every
top-level program key the loader accepts, and every table size with its
default, each in the order the code has it, and every action kind the
stats count; and every name the package exports exists."""

import dataclasses
import re
from pathlib import Path

import flowfsm
from flowfsm import programs
from flowfsm.engine import ACTION_KINDS
from flowfsm.stats import RunStats

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "SCHEMA.md"


def dotted_keys(doc, prefix=""):
    """Keys of a nested mapping in document order; a non-empty mapping
    stands for its own keys, as ``parent.child``."""
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            yield from dotted_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def section(title):
    """The text of one "## " section of the schema document."""
    return SCHEMA.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def table_keys(title):
    """First-column keys of the table in one section."""
    return re.findall(r"^\| `([^`]+)` \|", section(title), re.MULTILINE)


def test_every_stats_key_is_documented_in_order():
    keys = list(dotted_keys(RunStats(throughput_pps=1.0).to_dict(True)))
    assert "context_table.evictions" in keys and "throughput_pps" in keys
    assert table_keys("Stats document") == keys


def test_the_action_kinds_are_documented():
    row = next(
        line for line in section("Stats document").splitlines()
        if line.startswith("| `actions` |")
    )
    kinds = re.findall(r"`(\w+)`", row.split("|")[2])
    assert sorted(kinds) == sorted(ACTION_KINDS.values())


def test_every_top_level_key_is_documented_in_order():
    assert table_keys("Top-level keys") == list(programs.TOP_LEVEL_KEYS)


def test_every_table_size_is_documented_with_its_default():
    block = section("`table_sizes`").split("```yaml\n", 1)[1].split("```", 1)[0]
    documented = re.findall(r"^  (\w+): (\d+)", block, re.MULTILINE)
    defaults = dataclasses.asdict(programs.TableSizes())
    assert [(key, int(value)) for key, value in documented] == list(defaults.items())


def test_every_exported_name_resolves():
    missing = [name for name in flowfsm.__all__ if not hasattr(flowfsm, name)]
    assert not missing
