"""docs/SCHEMA.md lists every key ``flowfsm run --stats`` writes, and
every key of every program section with its default and bounds, each in
the order the code has it, and every action kind the stats count; and
every name the package exports exists."""

import re
from pathlib import Path

import pytest
import yaml

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


def key_tables(title):
    """(key, default, bounds cell) of each row of each key table in one
    section, a table being a run of lines that start with "|"."""
    tables, rows = [], None
    for line in section(title).splitlines() + [""]:
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.split("|")[1:5]]
            rows.append((cells[0].strip("`"), default_of(cells[2]), cells[3]))
        elif line.startswith("|"):
            rows = rows if rows is not None else []
        elif rows is not None:
            tables.append(rows)
            rows = None
    return tables


def number(n):
    """A bound as the tables write it: 2^64 − 1 for MAX_PERIOD, else decimal."""
    return str(n) if n < 1 << 32 else f"2^{n.bit_length()} − 1"


def default_of(cell):
    """The default a table cell names: none, no value, or a YAML value."""
    if cell == "required":
        return programs.REQUIRED
    return None if cell == "—" else yaml.safe_load(cell.strip("`"))


def documented_bounds(read, bounds):
    """An entry's bounds as its table cell writes them."""
    if read is programs._int:
        return f"{bounds[0]}..{number(bounds[1])}" if len(bounds) > 1 else f"≥ {bounds[0]}"
    if read is programs._size:
        return f"1..{bounds[0]}" if bounds else "≥ 1"
    if read is programs._name:
        return ", ".join(f"`{name}`" for name in bounds[0])
    if read in (programs._expect, programs._entries) and bounds[1:] == (True,):
        return "non-empty"
    return "—"


def assert_documented(title, *schemas):
    """Each key table of the section lists its schema's keys in order, each
    with its default and bounds."""
    expected = [
        [
            (key, default, documented_bounds(read, bounds))
            for key, (read, default, bounds) in schema.items()
        ]
        for schema in schemas
    ]
    assert key_tables(title) == expected


def test_every_top_level_key_is_documented_in_order():
    assert_documented("Top-level keys", programs.PROGRAM)


def test_every_table_size_is_documented_with_its_default():
    assert_documented("`table_sizes`", programs.TABLE_SIZES)


SECTIONS = [
    ("`fields`", (programs.FIELD,)),
    ("`conditions`", (programs.CONDITION,)),
    ("`rows`", (programs.ROW,)),
    ("`context_fallback`", (programs.FALLBACK,)),
    ("`classifier_tree`", (programs.TREE, programs.TREE_NODE, programs.TREE_LEAF)),
]


@pytest.mark.parametrize(
    "title, schemas", SECTIONS, ids=[title.strip("`") for title, _ in SECTIONS]
)
def test_every_section_key_is_documented_in_order(title, schemas):
    assert_documented(title, *schemas)


def test_every_exported_name_resolves():
    missing = [name for name in flowfsm.__all__ if not hasattr(flowfsm, name)]
    assert not missing
