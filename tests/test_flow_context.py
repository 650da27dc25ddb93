import random

from hypothesis import given, settings
from hypothesis import strategies as st

from flowfsm.flow_context import Activity, FlowContext, FlowContextTable

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
    # evicting the four idle colliders frees their buckets for the fifth
    assert table.housekeep() == 0
    assert table.housekeep() == 4
    assert table.write_back(colliders[4], 1, [0, 0, 0, 0])
    assert table.occupancy == 1
    assert table.table_full_drops == 1


def test_bookkeeping_bounded_by_capacity_over_many_keys():
    table = small_table()
    for key in range(20_000):
        table.write_back(key, 1, [0, 0, 0, 0])
        if key % 500 == 499:
            table.housekeep()
            table.housekeep()
    sizes = {
        name: len(value)
        for name, value in vars(table).items()
        if isinstance(value, (dict, list))
    }
    assert max(sizes.values()) <= table.capacity, sizes


def test_housekeep_touched_entry_stays():
    table = small_table()
    table.write_back(1, 1, [0, 0, 0, 0])
    table.lookup_context(1)
    assert table.housekeep() == 0
    assert table.get(1).activity == Activity.INACTIVE
    table.lookup_context(1)  # touch revives
    assert table.get(1).activity == Activity.ACTIVE
    assert table.housekeep() == 0
    assert table.occupancy == 1


def test_housekeep_idle_entry_evicted_on_second_scan():
    table = small_table()
    table.write_back(1, 1, [0, 0, 0, 0])
    assert table.housekeep() == 0  # ACTIVE -> INACTIVE
    assert table.housekeep() == 1  # INACTIVE -> gone
    assert table.occupancy == 0
    assert table.lookup_context(1).state == 0
    assert table.evictions == 1


def test_periodic_sender_never_evicted():
    table = small_table()
    table.write_back(1, 1, [0, 0, 0, 0])
    for _ in range(10):
        table.lookup_context(1)
        table.housekeep()
    assert table.occupancy == 1


def test_occupancy_never_exceeds_capacity():
    table = FlowContextTable(subtables=2, buckets=2, bucket_depth=2, seed=0)
    for key in range(100):
        table.write_back(key, 1, [0, 0, 0, 0])
    assert table.occupancy <= table.capacity == 8
    assert table.high_water <= table.capacity


def flipped(rng, key, mask, inside):
    """``key`` with one bit flipped inside (or outside) ``mask``."""
    bits = [i for i in range(128) if (mask >> i & 1) == inside]
    return key ^ (1 << rng.choice(bits)) if bits else key


def test_model_equivalence_random_operations():
    rng = random.Random(17)
    table = FlowContextTable(subtables=4, buckets=64, bucket_depth=4, seed=5)
    ref = RefContextModel()
    # overlapping fallbacks (nested top-byte masks, low bits, both), with
    # unique priorities installed in shuffled order; values carry bits
    # outside their masks
    masks = [0xFF << 120, 0xF0 << 120, 0xFFFF, (0xF0 << 120) | 0xFF00, 0xC0 << 120]
    fallbacks = []
    for mask, priority in zip(masks, rng.sample(range(50), len(masks))):
        value = rng.getrandbits(128)
        if rng.random() < 0.5 and fallbacks:
            value = fallbacks[-1][0]  # same value under another mask
        regs = [rng.getrandbits(32) for _ in range(rng.randrange(5))]
        fallbacks.append((value, mask, priority, rng.randrange(1, 5), regs))
    rng.shuffle(fallbacks)
    for value, mask, priority, state, regs in fallbacks:
        table.add_fallback(value, mask, priority, state, registers=regs)
        ref.add_fallback(value, mask, priority, state, regs=regs)
    keys = [rng.getrandbits(128) for _ in range(300)]
    for value, mask, *_ in fallbacks:
        keys.append(value)
        keys += [flipped(rng, value, mask, inside=False) for _ in range(20)]
        keys += [flipped(rng, value, mask, inside=True) for _ in range(20)]
    for _ in range(3000):
        op = rng.random()
        key = rng.choice(keys)
        if op < 0.55:
            ctx = table.lookup_context(key)
            assert (ctx.state, tuple(ctx.r)) == ref.lookup(key)
        elif op < 0.9:
            state = rng.randrange(0, 3)
            regs = [rng.randrange(0, 4) for _ in range(4)]
            table.write_back(key, state, regs)
            ref.write_back(key, state, regs)
        else:
            assert table.housekeep() == ref.housekeep()
    assert table.table_full_drops == 0
    assert table.occupancy == len(ref.entries)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fallback_lookup_matches_reference_property(data):
    width = data.draw(st.integers(min_value=1, max_value=10))
    shift = data.draw(st.sampled_from([0, 64, 128 - width]))
    word = st.integers(min_value=0, max_value=(1 << width) - 1)
    priorities = data.draw(st.lists(st.integers(0, 100), max_size=12, unique=True))
    table, ref = small_table(), RefContextModel()
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
