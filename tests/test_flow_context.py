import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfsm.flow_context import FlowContextTable

from helpers import RefContextModel


def small_table(**kw):
    args = dict(subtables=4, buckets=8, bucket_depth=1, seed=1)
    args.update(kw)
    return FlowContextTable(**args)


def test_default_context_synthesized_on_miss():
    table = small_table()
    ctx = table.lookup_context(12345)
    assert (ctx.state, ctx.r) == (0, [0, 0, 0, 0])
    assert table.occupancy == 0  # lookups never allocate


def test_write_back_roundtrip():
    table = small_table()
    table.write_back(7, 2, [7, 0, 0, 0])
    ctx = table.lookup_context(7)
    assert (ctx.state, ctx.r) == (2, [7, 0, 0, 0])


def test_default_write_back_elided():
    table = small_table()
    table.write_back(9, 0, [0, 0, 0, 0])
    assert table.occupancy == 0


def test_non_default_write_back_allocates():
    table = small_table()
    table.write_back(9, 1, [0, 0, 0, 0])
    assert table.occupancy == 1
    table.write_back(10, 0, [0, 0, 1, 0])  # non-zero register also allocates
    assert table.occupancy == 2


def test_existing_entry_updated_in_place_even_to_default():
    table = small_table()
    table.write_back(9, 1, [5, 0, 0, 0])
    table.write_back(9, 0, [0, 0, 0, 0])
    assert table.occupancy == 1
    assert table.lookup_context(9).state == 0


def test_fallback_entry_state_with_zeroed_registers():
    table = small_table()
    # wildcard on the low 8 bits of the key
    table.add_fallback(0x06 << 120, 0xFF << 120, 1, state=5)
    ctx = table.lookup_context((0x06 << 120) | 0x1234)
    assert (ctx.state, ctx.r) == (5, [0, 0, 0, 0])
    assert table.occupancy == 0
    # non-matching keys still get the default
    assert table.lookup_context(0x07 << 120).state == 0


def test_fallback_initial_registers():
    table = small_table()
    table.add_fallback(0, 0, 1, state=3, registers=[9, 8, 7, 6])
    assert table.lookup_context(42).r == [9, 8, 7, 6]


def test_exact_match_shadows_fallback():
    table = small_table()
    table.add_fallback(0, 0, 1, state=3)
    table.write_back(42, 1, [1, 0, 0, 0])
    assert table.lookup_context(42).state == 1


def test_table_full_on_adversarial_keys():
    table = FlowContextTable(subtables=4, buckets=4, bucket_depth=1, seed=3)
    # find 5 keys whose candidate buckets coincide in every subtable
    groups = {}
    for key in range(4000):
        pos = table._positions(key)
        groups.setdefault(pos, []).append(key)
        if len(groups[pos]) == 5:
            colliders = groups[pos]
            break
    else:
        raise AssertionError("no 5-way collision found in search budget")
    for key in colliders[:4]:
        assert table.write_back(key, 1, [0, 0, 0, 0])
    assert not table.write_back(colliders[4], 1, [0, 0, 0, 0])
    assert table.table_full_drops == 1
    # the store keeps serving the already-present keys
    assert table.lookup_context(colliders[0]).state == 1
    # after two idle periods the four colliders have expired, and the
    # fifth key's insert reclaims their buckets
    table.advance(2)
    assert table.write_back(colliders[4], 1, [0, 0, 0, 0])
    assert (table.occupancy, table.evictions, table.table_full_drops) == (1, 4, 1)
    assert colliders[0] not in table._contexts


def test_bookkeeping_bounded_by_capacity_over_many_keys():
    for table in (small_table(), small_table(bucket_depth=3)):
        for key in range(20_000):
            table.write_back(key, 1, [0, 0, 0, 0])
            if key % 500 == 499:
                table.advance(table.epoch + 2)
        sizes = {
            name: len(value)
            for name, value in vars(table).items()
            if isinstance(value, (dict, list))
        }
        assert max(sizes.values()) <= table.capacity, sizes
        # each stored key is listed by one bucket, which lists at most
        # bucket_depth keys
        members = table._members.values()
        assert max(map(len, members)) <= table.bucket_depth
        assert sorted(k for keys in members for k in keys) == sorted(table._contexts)


def flow_key(ip_src, ip_dst):
    """The key of a [ip_src, ip_dst] scope of two 32-bit fields."""
    return ip_src << 96 | ip_dst << 64


@pytest.mark.parametrize("vary", ["ip_src", "ip_dst"])
def test_placement_spreads_sequential_addresses(vary):
    """3,000 keys that differ in the low bits of one address spread over a
    1,024-bucket subtable as 3,000 balls thrown at random into 1,024 bins
    do: about 969 bins used and about 9 balls in the fullest. The
    subtables place a key independently of each other."""
    table = FlowContextTable(subtables=4, buckets=1024, seed=3)
    base, other = 0x0A000000, 0xC0A80001
    keys = [
        flow_key(base + i, other) if vary == "ip_src" else flow_key(other, base + i)
        for i in range(3000)
    ]
    positions = [table._positions(key) for key in keys]
    for sub in range(table.subtables):
        loads = Counter(p[sub] for p in positions)
        assert len(loads) >= 900 and max(loads.values()) <= 16, (sub, len(loads))
    for a, b in combinations(range(table.subtables), 2):
        # two independent subtables agree on about 3 keys in 3,000
        assert sum(p[a] == p[b] for p in positions) <= 20


def test_reinserted_expired_key_leaves_no_phantom_load():
    """A key re-inserted after it expired can land in another candidate
    bucket than before; its old bucket must then forget it, or that bucket
    counts it as a live load and turns away the next key."""
    table = FlowContextTable(subtables=2, buckets=4, bucket_depth=1, seed=5)
    pos = {key: table._positions(key) for key in range(2000)}
    # `blocker` holds the first-subtable bucket of `key`, so that `key`
    # goes to its second-subtable bucket; `probe` shares both buckets
    key, blocker, probe = next(
        (k, b, p)
        for k in pos
        for b in pos
        if b != k and pos[b][0] == pos[k][0]
        for p in pos
        if p not in (k, b) and pos[p] == pos[k]
    )
    table.write_back(blocker, 1, [0, 0, 0, 0])
    table.write_back(key, 1, [0, 0, 0, 0])
    table.advance(2)  # both expire
    # the first-subtable bucket now holds only an expired key: key goes there
    assert table.write_back(key, 1, [0, 0, 0, 0])
    assert [k for keys in table._members.values() for k in keys].count(key) == 1
    # the second-subtable bucket is free again
    assert table.write_back(probe, 1, [0, 0, 0, 0])
    assert (table.occupancy, table.table_full_drops) == (2, 0)


def test_stored_context_memory_is_bounded():
    """A stored context, its key and its share of the bucket lists take at
    most 450 traced bytes (330-410 on CPython 3.11, with the dicts at
    different points of their growth), so a table holds at most
    450 x subtables x buckets x depth bytes of contexts."""
    table = FlowContextTable(subtables=4, buckets=1 << 14, bucket_depth=4, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(20_000):
            table.write_back(flow_key(0x0A000000 + i, 0xC0A80001), 1, [1, 2, 3, 4])
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.occupancy == 20_000
    assert used / table.occupancy <= 450


def test_housekeep_touched_entry_stays():
    table = small_table()
    table.write_back(1, 1, [0, 0, 0, 0])
    table.advance(1)
    assert table.get(1).epoch == 0  # a peek does not stamp
    table.lookup_context(1)  # a hit in the next period keeps it alive
    assert table.get(1).epoch == 1
    table.advance(2)
    assert table.occupancy == 1 and table.evictions == 0


def test_housekeep_idle_entry_evicted_on_second_scan():
    table = small_table()
    table.write_back(1, 1, [0, 0, 0, 0])
    table.advance(1)
    assert (table.occupancy, table.evictions) == (1, 0)
    table.advance(2)
    assert (table.occupancy, table.evictions) == (0, 1)
    assert table.get(1) is None
    assert table.lookup_context(1).state == 0
    # a default write-back to the expired key allocates nothing
    assert table.write_back(1, 0, [0, 0, 0, 0])
    assert (table.occupancy, table.high_water) == (0, 1)


def test_periodic_sender_never_evicted():
    table = small_table()
    table.write_back(1, 1, [0, 0, 0, 0])
    for epoch in range(1, 11):
        table.lookup_context(1)
        table.advance(epoch)
    assert table.occupancy == 1


def test_occupancy_never_exceeds_capacity():
    table = FlowContextTable(subtables=2, buckets=2, bucket_depth=2, seed=0)
    for key in range(100):
        table.write_back(key, 1, [0, 0, 0, 0])
    assert table.occupancy <= table.capacity == 8
    assert table.high_water <= table.capacity


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fallback_lookup_matches_reference_property(data):
    width = data.draw(st.integers(min_value=1, max_value=10))
    shift = data.draw(st.sampled_from([0, 64, 128 - width]))
    word = st.integers(min_value=0, max_value=(1 << width) - 1)
    priorities = data.draw(st.lists(st.integers(0, 100), max_size=12, unique=True))
    table = small_table()
    ref = RefContextModel.of(table)
    for priority in priorities:
        value, mask = data.draw(word) << shift, data.draw(word) << shift
        state = data.draw(st.integers(min_value=1, max_value=7))
        regs = data.draw(st.lists(st.integers(0, 2**32 - 1), max_size=4))
        table.add_fallback(value, mask, priority, state, registers=regs)
        ref.add_fallback(value, mask, priority, state, regs=regs)
    key = data.draw(word) << shift
    ctx = table.lookup_context(key)
    assert (ctx.state, tuple(ctx.r)) == ref.lookup(key)


def test_seeds_are_reproducible():
    a = FlowContextTable(seed=123)
    b = FlowContextTable(seed=123)
    c = FlowContextTable(seed=124)
    assert a.seeds == b.seeds
    assert a.seeds != c.seeds
    key = 999
    assert a._positions(key) == b._positions(key)
