import copy
import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfsm import programs
from flowfsm.engine import (
    VERDICT_COLUMNS,
    Engine,
    NonMonotoneTimestampError,
    _first_match,
    key_layout,
    pack_key,
)
from flowfsm.harness import gen, traceio

from helpers import (
    flow_key,
    packed_rows,
    program_config,
    row_key,
    scan_lookup,
    stored_contexts,
    trace_row,
)
from test_acceptance import golden_rows
from test_replay_digests import MAC_TRACE, TRACES


def bundled_engine(name):
    config = programs.bundled_program(name)
    return Engine(config), programs.make_binder(config)


def test_flow_key_single_field_left_aligned():
    layout = key_layout([(0, 32)])
    assert pack_key(layout, [0x0A000001] + [0] * 7) == 0x0A000001 << 96


def test_flow_key_concatenation_order():
    layout = key_layout([(0, 16), (1, 8)])
    assert pack_key(layout, [0x1234, 0x56] + [0] * 6) == 0x123456 << (128 - 24)


def test_src_and_dst_scopes_differ():
    # source and destination station ids in separate slots
    h = [0x020000AA, 0x020000BB] + [0] * 6
    assert pack_key(key_layout([(0, 32)]), h) != pack_key(key_layout([(1, 32)]), h)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_flow_key_injective_over_field_values(data):
    widths = data.draw(
        st.lists(st.integers(min_value=1, max_value=32), min_size=1, max_size=4)
    )
    layout = key_layout(list(enumerate(widths)))
    vals_a = [data.draw(st.integers(0, (1 << w) - 1)) for w in widths]
    vals_b = [data.draw(st.integers(0, (1 << w) - 1)) for w in widths]
    key_a = pack_key(layout, vals_a + [0] * (8 - len(vals_a)))
    key_b = pack_key(layout, vals_b + [0] * (8 - len(vals_b)))
    if vals_a == vals_b:
        assert key_a == key_b
    else:
        assert key_a != key_b


def run_rows(engine, bind, rows):
    """The verdict rows of a replay, each as a column -> value dict."""
    verdicts = engine.run_trace(bind(trace_row(row), i) for i, row in enumerate(rows))
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


class NoScan(dict):
    """A context dict that fails as soon as anything iterates its entries."""

    def __iter__(self):
        raise AssertionError("a packet iterated the stored contexts")

    keys = values = items = __iter__


def test_no_packet_iterates_the_stored_contexts():
    engine, bind = bundled_engine("mac_learning")
    engine.context._now, engine.context._prev = NoScan(), NoScan()
    gap = 30_000_000  # 100,000 management periods of 300 s
    stations = [
        {"ts": gap, "eth_src": 1000 + i, "eth_dst": 5, "in_port": 2} for i in range(2000)
    ]
    rows = [
        {"ts": 0, "eth_src": 7, "eth_dst": 9, "in_port": 1},
        *stations,
        # the next period starts with two thousand contexts stored
        {"ts": gap + 300, "eth_src": 9, "eth_dst": 7, "in_port": 2},
    ]
    verdicts = run_rows(engine, bind, rows)
    learned, reply = verdicts[0], verdicts[-1]
    assert learned["action"] == "flood"
    # station 7 aged out during the gap, so the reply cannot be forwarded
    assert (reply["action"], reply["pre_state"]) == ("flood", "DEFAULT")
    stats = engine.stats
    assert stats.evictions == 1
    assert stats.occupancy + stats.table_full_drops == len(stations) + 1


def test_a_classifier_replay_stores_only_live_contexts():
    """Over a classifier grid spanning many management periods, flows age
    out of c45_classifier's table, and at the end the table stores its
    live contexts and nothing else."""
    engine, bind = bundled_engine("c45_classifier")
    rows = gen.classifier_grid({"repeats": 12}, random.Random(1))
    assert rows[-1]["ts"] // engine._period >= 2
    run_rows(engine, bind, rows)
    stats = engine.stats
    assert stats.evictions > 0 and stats.occupancy > 0
    assert len(stored_contexts(engine.context)) == stats.occupancy


def test_the_cyclic_gc_does_not_track_stored_contexts():
    """A stored context is a tuple of ints, which a collection untracks:
    after one, a full store adds nothing to what the GC walks."""
    engine, bind = bundled_engine("c45_classifier")
    run_rows(engine, bind, gen.classifier_grid({"repeats": 12}, random.Random(1)))
    gc.collect()
    stored = stored_contexts(engine.context)
    assert stored and not any(gc.is_tracked(ctx) for _, ctx in stored)


@pytest.mark.parametrize("name", ["mac_learning", "c45_classifier"])
def test_verdicts_do_not_depend_on_the_period_phase(name, tmp_path):
    """A trace shifted by whole management periods gives the same verdicts
    and stats, evictions included. The ``ts`` column differs, and so may
    the cond bits of packets at ts = 0: c45_classifier's ``GT ts R4``
    reads a fresh context's R4 = 0 as not expired there."""
    if name == "mac_learning":
        rows = golden_rows(name, tmp_path)
    else:
        # twelve repeats span about 156 s, so flows age out of the table
        rows = gen.classifier_grid({"repeats": 12}, random.Random(1))
    shift = 5 * programs.bundled_program(name).management_period
    later = [{**row, "ts": row["ts"] + shift} for row in rows]
    runs = []
    for trace in (rows, later):
        engine, bind = bundled_engine(name)
        verdicts = run_rows(engine, bind, trace)
        for row, verdict in zip(rows, verdicts):
            del verdict["ts"]
            if row["ts"] == 0:
                del verdict["cond_bits"]
        runs.append((verdicts, engine.stats.to_dict()))
    assert runs[0] == runs[1]
    assert runs[0][1]["context_table"]["evictions"] > 0


def test_the_first_packet_starts_the_first_period():
    """The first packet starts the period clock: a context stored at
    ts = -1 is in period -1 and has expired by ts = P + 1, in period 1."""
    engine, bind = bundled_engine("long_flow")
    period = engine._period
    rows = [{"ts": ts, "ip_src": 1, "ip_dst": 2} for ts in (-1, period + 1)]
    run_rows(engine, bind, rows)
    assert (engine.stats.evictions, engine.stats.occupancy) == (1, 1)


def field_vectors(config, rng):
    """Header vectors whose match fields take each row's pattern value, its
    neighbours under the mask, and random values of the field's width."""
    per_field = []
    for name in config.match_fields:
        full = (1 << config.field_by_name(name).width) - 1
        values = {rng.randrange(full + 1) for _ in range(3)}
        for row in config.transition_rows():
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
    """The transition a packet reads off its state's dispatch is the
    (state, row) pair whose row the linear scan picks, with that row's
    constants."""
    config = program_config(name)
    engine = Engine(config)
    entries = packed_rows(config)
    rows = config.transition_rows()
    vectors = list(field_vectors(config, random.Random(name)))
    for label, state in config.states.items():
        dispatch = engine.dispatch[state]
        for bits in range(256):
            for h in vectors:
                # the transition the step reads off the dispatch
                t = dispatch[bits]
                if isinstance(t, tuple):
                    t = _first_match(t, h)
                action, nxt, _, pre, post, row_idx = engine.transitions[t]
                key = row_key(config, state, bits, h)
                assert row_idx == scan_lookup(entries, key), (state, bits, h)
                row = rows[row_idx]
                after = row.next_state or label
                assert (action, nxt, pre, post) == (
                    row.action, config.states[after], label, after
                )


@pytest.mark.parametrize("name", programs.BUNDLED)
def test_no_packet_builds_or_grows_a_table(name, tmp_path):
    """Every dispatch and the transition table are complete once the engine
    is built: a replay of the program's digest trace leaves them as they
    were."""
    trace = tmp_path / "trace.csv"
    if TRACES[name] is None:
        trace.write_text(MAC_TRACE)
    else:
        kind, params, seed = TRACES[name]
        gen.gen_trace(kind, params, seed, trace)
    engine, bind = bundled_engine(name)
    built = (copy.deepcopy(engine.dispatch), list(engine.transitions))
    assert sorted(engine.dispatch) == sorted(programs.bundled_program(name).states.values())
    assert all(len(table) == 256 and None not in table for table in engine.dispatch.values())
    verdicts = engine.run_trace(bind(row, i) for i, row in enumerate(traceio.read_trace(trace)))
    assert sum(1 for _ in verdicts) == engine.stats.packets > 0
    assert (engine.dispatch, engine.transitions) == built


@pytest.mark.parametrize("window", [0, 1, 2, 3])
def test_hazard_window_delays_update_visibility(window):
    config = programs.bundled_program("long_flow")
    engine = Engine(config, hazard_window=window)
    bind = programs.make_binder(config)
    # the R0 of the context each packet looked up
    seen = []
    lookup = engine.context.lookup_context

    def recorded(key):
        ctx = lookup(key)
        seen.append(ctx[1])
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
    flow = flow_key(config, config.lookup_scope, [1, 2, 0, 0, 0, 0, 0, 0])
    assert engine.context.get(flow)[1] == expected[-1] + 1


@pytest.mark.parametrize("name", ["long_flow", "mac_learning"])
@pytest.mark.parametrize("hazard", [0, 2])
def test_step_rejects_a_timestamp_that_runs_backwards(name, hazard):
    """The step is the one time-order check, inside a management period
    and across its boundary; its error names the packet by the seq of
    its verdict."""
    config = programs.bundled_program(name)
    for times, bad in [((5, 6, 6, 5), "packet 3: timestamp 5 after 6"),
                       ((1, 10**7, 10**7 - 1), "packet 2: timestamp 9999999 after 10000000")]:
        engine = Engine(config, hazard_window=hazard)
        records = [([1, 2, 0, 0, 0, 0, 0, 1], ts) for ts in times]
        verdicts = engine.run_trace(records)
        for _ in times[:-1]:
            next(verdicts)
        with pytest.raises(NonMonotoneTimestampError) as exc:
            next(verdicts)
        assert str(exc.value) == bad
        assert engine.stats.packets == len(times) - 1
