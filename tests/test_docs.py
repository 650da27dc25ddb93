"""docs/SCHEMA.md lists every key ``flowfsm run --stats`` writes."""

import re
from pathlib import Path

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


def documented_stats_keys():
    """First-column keys of the table in the "Stats document" section."""
    section = SCHEMA.read_text().split("\n## Stats document\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE)


def test_every_stats_key_is_documented_in_order():
    keys = list(dotted_keys(RunStats(throughput_pps=1.0).to_dict(True)))
    assert "context_table.evictions" in keys and "throughput_pps" in keys
    assert documented_stats_keys() == keys
