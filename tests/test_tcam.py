"""Ternary (value/mask, priority) matching of the context fallback.

A flow-context lookup miss scans the wildcard fallbacks of
``FlowContextTable`` in descending priority; the program loader is the one
place their count, priorities and pattern widths are checked.
"""

import random

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfsm import programs
from flowfsm.flow_context import FlowContextTable
from flowfsm.programs import ProgramValidationError

from helpers import patched_doc, scan_lookup

ALL_ONES = (1 << 128) - 1


def table_of(fallbacks):
    """Context table holding ``(value, mask, priority, state)`` fallbacks."""
    table = FlowContextTable(subtables=4, buckets=8, bucket_depth=1, seed=1)
    for value, mask, priority, state in fallbacks:
        table.add_fallback(value, mask, priority, state)
    return table


def fallback_state(table, key):
    """State a miss on ``key`` yields, or None for the default context."""
    return table.lookup_context(key).state or None


def load_long_flow(fallbacks, **sizes):
    doc = patched_doc("long_flow", ("context_fallback",), fallbacks)
    if sizes:
        doc["table_sizes"] = sizes
    return programs.loads(yaml.safe_dump(doc), source="doc")


def rejection_of(fallbacks, **sizes):
    with pytest.raises(ProgramValidationError) as info:
        load_long_flow(fallbacks, **sizes)
    return [p.removeprefix("doc: ") for p in info.value.problems]


def test_universal_wildcard_matches_everything():
    table = table_of([(0, 0, 0, 3)])
    for key in (0, 1, ALL_ONES, 0x1234):
        assert fallback_state(table, key) == 3


def test_empty_table_misses():
    assert fallback_state(table_of([]), 0x1234) is None


def test_exact_entry_matches_only_its_key():
    table = table_of([(0xBEEF, ALL_ONES, 1, 2)])
    assert fallback_state(table, 0xBEEF) == 2
    assert fallback_state(table, 0xBEEE) is None
    assert fallback_state(table, 0xBEEF | 1 << 127) is None


def test_capacity_bound():
    rules = [{"priority": p, "state": "LONG", "match": {"ip_dst": p}} for p in (1, 2, 3)]
    assert len(load_long_flow(rules[:2], context_fallback=2).context_fallback) == 2
    problems = rejection_of(rules, context_fallback=2)
    assert any(p.startswith("context_fallback: 3 entries exceed") for p in problems), problems


def test_duplicate_priority_rejected():
    rules = [
        {"priority": 1, "state": "LONG", "match": {"ip_dst": 1}},
        {"priority": 1, "state": "LONG", "match": {"ip_dst": 2}},
    ]
    problems = rejection_of(rules)
    assert any(p.startswith("context_fallback[1]") for p in problems), problems


def test_width_mismatch_rejected():
    # ip_dst is a 32-bit field: neither a value nor a mask may be wider
    for match in (0x1_0000_0000, "0x0/0x1ffffffff"):
        rules = [{"priority": 1, "state": "LONG", "match": {"ip_dst": match}}]
        problems = rejection_of(rules)
        assert any(p.startswith("context_fallback[0].match.ip_dst") for p in problems), problems


def test_identical_patterns_resolved_by_priority():
    rules = [(0x10, 0xF0, 1, 1), (0x10, 0xF0, 9, 2)]
    for order in (rules, rules[::-1]):
        assert fallback_state(table_of(order), 0x15) == 2
    # matches the scan oracle too
    assert scan_lookup(rules, 0x15) == 2


def test_value_normalized_to_mask():
    # value bits outside the mask take no part in the match
    table = table_of([(0xFF, 0xF0, 1, 2)])
    assert fallback_state(table, 0xF0) == 2
    assert fallback_state(table, 0xF7) == 2
    assert fallback_state(table, 0xE0) is None


def random_rules(rng, count, width):
    """``count`` rules on the low ``width`` key bits with unique priorities.
    Masks are sparse (about one bit in eight), so rules overlap and random
    keys hit them; values carry bits outside their masks."""
    priorities = rng.sample(range(1000), count)
    rules = []
    for i, priority in enumerate(priorities):
        mask = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
        rules.append((rng.getrandbits(width), mask, priority, i + 1))
    return rules


def test_repeated_lookup_deterministic():
    rng = random.Random(1)
    table = table_of(random_rules(rng, 32, 32))
    keys = [rng.getrandbits(32) for _ in range(200)]
    first = [fallback_state(table, k) for k in keys]
    assert [fallback_state(table, k) for k in keys] == first
    assert any(first)


def test_random_tables_match_scan_oracle():
    rng = random.Random(7)
    rules = random_rules(rng, 32, 32)
    table = table_of(rules)
    hits = 0
    for _ in range(2000):
        key = rng.getrandbits(32)
        expected = scan_lookup(rules, key)
        assert fallback_state(table, key) == expected
        hits += expected is not None
    assert hits > 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lookup_matches_oracle_property(data):
    width = data.draw(st.integers(min_value=4, max_value=24))
    shift = data.draw(st.sampled_from([0, 64, 128 - width]))
    word = st.integers(min_value=0, max_value=(1 << width) - 1)
    priorities = data.draw(st.lists(st.integers(0, 100), max_size=12, unique=True))
    rules = [
        (data.draw(word) << shift, data.draw(word) << shift, p, i + 1)
        for i, p in enumerate(priorities)
    ]
    key = data.draw(word) << shift
    assert fallback_state(table_of(rules), key) == scan_lookup(rules, key)
