import itertools
import random

import pytest

from flowfsm import programs
from flowfsm.engine import VERDICT_COLUMNS
from flowfsm.extractor import KeyScope

from helpers import program_config, scan_lookup


def bundled_engine(name):
    config = programs.bundled_program(name)
    return programs.build_engine(config), programs.make_binder(config)


def run_rows(engine, bind, rows):
    """The verdict rows of a replay, each as a column -> value dict."""
    verdicts = engine.run_trace(bind(row, i) for i, row in enumerate(rows))
    return [dict(zip(VERDICT_COLUMNS, v)) for v in verdicts]


def test_pre_state_is_the_state_before_the_update():
    engine, bind = bundled_engine("long_flow")
    rows = [{"ts": t, "ip_src": 1, "ip_dst": 2} for t in range(6)]
    verdicts = run_rows(engine, bind, rows)
    # with G0 = 3 the fifth packet of a flow is the first marked one
    crossed = verdicts[4]
    assert (crossed["pre_state"], crossed["post_state"]) == ("DEFAULT", "LONG")
    assert crossed["action"] == "dscp:10:fwd:1"
    assert (verdicts[5]["pre_state"], verdicts[5]["post_state"]) == ("LONG", "LONG")
    # rows 0, 1, 2 are count, crossed, long
    assert engine.stats.transitions == {"DEFAULT#0": 4, "DEFAULT#1": 1, "LONG#2": 1}


def test_long_time_gap_costs_a_bounded_number_of_scans():
    engine, bind = bundled_engine("mac_learning")
    scan = engine.context.housekeep
    calls = []

    def counted(now=0):
        calls.append(now)
        assert len(calls) <= 3, "housekeeping scans grow with the time gap"
        return scan(now)

    engine.context.housekeep = counted
    rows = [
        {"ts": 0, "eth_src": 7, "eth_dst": 9, "in_port": 1},
        {"ts": 30_000_000, "eth_src": 9, "eth_dst": 7, "in_port": 2},
    ]
    learned, reply = run_rows(engine, bind, rows)
    assert learned["action"] == "flood"
    # station 7 aged out during the gap, so the reply cannot be forwarded
    assert (reply["action"], reply["pre_state"]) == ("flood", "DEFAULT")
    # one scan demotes the entry, the next evicts it; the rest are skipped
    assert calls == [300, 600]
    assert engine.context.evictions == 1


def packed_rows(config, rows):
    """The rows as (value, mask, priority, row index) over the packed key:
    16-bit state, 8 condition bits (condition i at bit i), then one 32-bit
    word per match field."""
    cond_pos = {name: i for i, (name, _) in enumerate(config.conditions)}
    entries = []
    for idx, row in enumerate(rows):
        if row.state is None:
            value = mask = 0
        else:
            value, mask = config.states[row.state], 0xFFFF
        cval = cmask = 0
        for name, bit in row.cond:
            cval |= bit << cond_pos[name]
            cmask |= 1 << cond_pos[name]
        value, mask = value << 8 | cval, mask << 8 | cmask
        match = dict(row.match)
        for name in config.match_fields:
            fv, fm = match.get(name, (0, 0))
            value, mask = value << 32 | fv, mask << 32 | fm
        entries.append((value, mask, row.priority, idx))
    return entries


def field_vectors(config, rows, rng):
    """Header vectors whose match fields take each row's pattern value, its
    neighbours under the mask, and random values of the field's width."""
    per_field = []
    for name in config.match_fields:
        full = (1 << config.field_by_name(name).width) - 1
        values = {rng.randrange(full + 1) for _ in range(3)}
        for row in rows:
            fv, fm = dict(row.match).get(name, (0, 0))
            values |= {fv, fv ^ (full & ~fm), (fv ^ 1) & full}
        per_field.append(sorted(values))
    slots = [config.field_by_name(name).slot for name in config.match_fields]
    for combo in itertools.product(*per_field):
        h = [0] * 8
        for slot, value in zip(slots, combo):
            h[slot] = value
        yield h


@pytest.mark.parametrize("name", programs.BUNDLED + ("synthetic",))
def test_dispatch_equals_a_linear_scan(name):
    config = program_config(name)
    engine = programs.build_engine(config)
    rows = programs.compile_rows(config)
    entries = packed_rows(config, rows)
    vectors = list(field_vectors(config, rows, random.Random(name)))
    slots = [config.field_by_name(n).slot for n in config.match_fields]
    for state in config.states.values():
        for bits in range(256):
            for h in vectors:
                key = state << 8 | bits
                for slot in slots:
                    key = key << 32 | h[slot]
                assert engine.match_row(state, bits, h) == scan_lookup(entries, key), (
                    state, bits, h,
                )


@pytest.mark.parametrize("window", [0, 1, 2, 3])
def test_hazard_window_delays_update_visibility(window):
    config = programs.bundled_program("long_flow")
    engine = programs.build_engine(config, hazard_window=window)
    bind = programs.make_binder(config)
    # the R0 of the context each packet looked up
    seen = []
    lookup = engine.context.lookup_context

    def recorded(key):
        ctx = lookup(key)
        seen.append(ctx.r[0])
        return ctx

    engine.context.lookup_context = recorded
    rows = [{"ts": t, "ip_src": 1, "ip_dst": 2} for t in range(12)]
    assert len(run_rows(engine, bind, rows)) == len(seen)
    # every packet adds one to the R0 it read: packet k reads the result of
    # packet k - window - 1, the latest update visible to it
    expected = []
    for k in range(len(rows)):
        earlier = k - window - 1
        expected.append(expected[earlier] + 1 if earlier >= 0 else 0)
    assert seen == expected
    # run_trace applies the updates still in flight when the trace ends
    flow = KeyScope([(0, 32), (1, 32)]).key([1, 2, 0, 0, 0, 0, 0, 0])
    assert engine.context.get(flow).r[0] == expected[-1] + 1
