"""Acceptance criteria that compare whole bundled programs, and the
update unit's primitives, with the independent oracles of
``flowfsm.harness.oracles``, with reference models or with golden files.

The criteria are numbered as in ``conftest.py``, which prints one summary
line per criterion.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowfsm import alu, programs
from flowfsm.engine import Engine
from flowfsm.flow_context import FlowContextTable
from flowfsm.harness import cli, gen, oracles, traceio

from helpers import (
    RefContextModel,
    flow_key,
    scan_lookup,
    stored_contexts,
    token_bucket_config,
    trace_row,
    window_bound_holds,
)
import test_alu
from test_replay_digests import MAC_TRACE, TRACES, replay


def assert_policer_equals_oracle(burst, q, arrivals):
    """Replay one flow's arrivals; returns the forwarded arrival times."""
    config = token_bucket_config(burst, q)
    engine = Engine(config, seed=1)
    bind = programs.make_binder(config)
    rows = (trace_row({"ts": t, "ip_src": gen.STRESS_IP}) for t in arrivals)
    actions = [v[2] for v in engine.run_trace(bind(row, i) for i, row in enumerate(rows))]
    assert actions == oracles.token_bucket_verdicts(burst, q, arrivals)
    forwarded = [t for t, action in zip(arrivals, actions) if action == "fwd:1"]
    assert window_bound_holds(forwarded, burst, q)
    return forwarded


@pytest.mark.parametrize("burst", [1, 2, 3, 4, 5, 10])
@pytest.mark.parametrize("gap", ["Q/5", "Q/2", "Q", "2Q"])
def test_c1_token_bucket_oracle_equivalence(burst, gap):
    """The policer forwards exactly what the counter oracle forwards, from
    ts = 0 on, including the early arrivals whose full-bucket anchor lies
    before time zero."""
    q = 100
    mean_gap = {"Q/5": q // 5, "Q/2": q // 2, "Q": q, "2Q": 2 * q}[gap]
    rng = random.Random(burst * 100 + mean_gap)
    rows = gen.bucket_stress({"q": q, "count": 300, "mean_gap": mean_gap}, rng)
    assert_policer_equals_oracle(burst, q, [0] + [row["ts"] for row in rows])


def test_c1_token_bucket_bundled_stress_trace():
    """The bundled program on the default stress trace: about half of the
    arrivals find a token, as the oracle says."""
    rows = gen.bucket_stress({}, random.Random(0))
    forwarded = assert_policer_equals_oracle(3, 100, [row["ts"] for row in rows])
    assert len(forwarded) == 4865


def test_c2_port_scan_behavior():
    """A 40 SYN/s scanner among three benign sources at 5 SYN/s: the
    scanner's first 20 SYNs pass and its 21st, where the engine's decayed
    counter reaches port_scan.yaml's threshold, is dropped; every benign
    SYN passes, its counter staying under the threshold; and a probe
    150 s after the scan stopped finds the scanner's context aged out and
    passes, moving the source from DEFAULT to MONITOR."""
    config = programs.bundled_program("port_scan")
    params = {"duration_s": 12, "scanner_rate": 40, "benign_rate": 5,
              "benign_sources": 3, "probe_gap_s": 150}
    rows = gen.portscan_mix(params, random.Random(2))
    engine = Engine(config, seed=1)
    bind = programs.make_binder(config)
    verdicts = list(engine.run_trace(bind(trace_row(row), i) for i, row in enumerate(rows)))
    scanner = [v for row, v in zip(rows, verdicts) if row["ip_src"] == gen.SCANNER_IP]
    benign = [v for row, v in zip(rows, verdicts) if row["ip_src"] != gen.SCANNER_IP]
    assert [v[2] for v in scanner[:21]] == ["fwd:1"] * 20 + ["drop"]
    assert len(benign) == 12 * 3 * 5
    assert all(v[2] == "fwd:1" for v in benign)
    probe = scanner[-1]
    assert probe[1] == rows[-1]["ts"] == 11 + 150
    assert (probe[2], probe[3], probe[4]) == ("fwd:1", "DEFAULT", "MONITOR")


def test_c3_classifier_equivalence():
    """Every flow of the classifier grid ends its window in the class the
    tree oracle gives for its running statistics, with the window's
    registers equal to the statistics oracle, and every leaf is reached.
    Twelve repeats span about 156 s, more than two 60 s management
    periods, so decided flows age out while later ones are measured."""
    config = programs.bundled_program("c45_classifier")
    rows = gen.classifier_grid({"repeats": 12}, random.Random(1))
    sizes = {}
    decided = {}
    engine = Engine(config, seed=1)
    bind = programs.make_binder(config)
    records = [bind(trace_row(row), i) for i, row in enumerate(rows)]
    for row, (h, _), verdict in zip(rows, records, engine.run_trace(records)):
        src = row["ip_src"]
        if verdict[3] == "MEASURE" and verdict[4] != "MEASURE":
            ctx = engine.context.get(flow_key(config, config.lookup_scope, h))
            decided[src] = verdict[4], verdict[5], ctx[1:5]
        elif src not in decided:
            sizes.setdefault(src, []).append(row["pkt_len"])
    assert decided.keys() == sizes.keys()
    assert engine.stats.evictions > 0
    for src, (label, _, regs) in decided.items():
        count, mean, var = oracles.running_var(sizes[src])
        total = sum(sizes[src]) & 0xFFFFFFFF
        assert regs == (count, mean, var, total), src
        assert label == oracles.classify(config, mean, var, total), src
    tree_rows = range(len(config.rows), len(config.transition_rows()))
    assert {row_id for _, row_id, _ in decided.values()} == set(tree_rows)


def encode_decode():
    """Decoding an encoded instruction gives it back: the seeded random
    and hypothesis round trips of ``test_alu.py``."""
    test_alu.test_encode_decode_roundtrip_randomized()
    test_alu.test_encode_decode_roundtrip_property()


# time steps: small ones, backwards included, and gaps that clear the history
EWMA_STEPS = st.one_of(st.integers(-40, 40), st.integers(32, 1 << 20))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(EWMA_STEPS, st.integers(0, 0xFFFFFFFF)), max_size=60))
@example([(5, 1 << 31), (31, 1), (-3, 2), (0, 0xFFFFFFFF), (32, 3)])
def ewma_replay(moves):
    """``exec_ewma`` replayed over a stream equals the accumulator oracle
    after every event, and counts each step back in time once."""
    events, t = [], 0
    for step, x in moves:
        t = min(max(t + step, 0), 0xFFFFFFFF)
        events.append((t, x))
    rt = alu.AluRuntime()
    last = acc = 0
    for n, (t, x) in enumerate(events, start=1):
        last, acc = alu.exec_ewma(last, acc, t, x, rt)
        assert (last, acc) == oracles.ewma_accumulator(events[:n])
    times = [0] + [t for t, _ in events]
    assert rt.time_violations == sum(b < a for a, b in zip(times, times[1:]))


def avg_bounds():
    """``exec_avg`` replayed over a stream equals the running-mean oracle,
    and stays within one unit per sample of the true mean."""
    rng = random.Random(11)
    for _ in range(50):
        values = [rng.randrange(0, 1 << 16) for _ in range(rng.randrange(1, 400))]
        count, mean = 0, 0
        for x in values:
            count, mean = alu.exec_avg(count, mean, x)
        assert (count, mean) == oracles.running_mean(values)
        assert abs(mean - oracles.true_mean(values)) <= len(values)


def random_disjoint_tuple(rng):
    """Up to 5 instructions with pairwise-distinct destinations."""
    Instruction, Opcode = alu.Instruction, alu.Opcode
    dests = list(range(8))
    rng.shuffle(dests)
    instrs = []
    while len(instrs) < 5 and dests:
        kind = rng.randrange(0, 6)
        if kind == 0 and len(dests) >= 3:
            d = [dests.pop() for _ in range(3)]
            instrs.append(
                Instruction(Opcode.VAR, (*d, rng.randrange(0, 16)))
            )
        elif kind == 1 and len(dests) >= 2:
            d1, d2 = dests.pop(), dests.pop()
            if rng.random() < 0.5:
                instrs.append(Instruction(Opcode.AVG, (d1, d2, rng.randrange(16))))
            else:
                instrs.append(
                    Instruction(
                        Opcode.EWMA,
                        (d1, d2, rng.randrange(16), rng.randrange(16)),
                    )
                )
        else:
            op = rng.choice(
                [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.XOR,
                 Opcode.ADDI, Opcode.SUBI, Opcode.LSR, Opcode.ROR, Opcode.NOT]
            )
            nsel, has_imm, _ = alu._LAYOUT[op]
            sel = (dests.pop(),) + tuple(
                rng.randrange(0, 16) for _ in range(nsel - 1)
            )
            imm = rng.randrange(0, 1 << 16) if has_imm else None
            instrs.append(Instruction(op, sel, imm))
    return instrs


def tuple_permutation():
    """A tuple whose instructions write distinct registers gives the same
    registers in any instruction order."""
    rng = random.Random(5)
    for _ in range(100):
        instrs = random_disjoint_tuple(rng)
        if alu.validate_tuple(instrs):
            continue  # builder produced an over-long tuple; skip
        r = [rng.getrandbits(32) for _ in range(4)]
        g = [rng.getrandbits(32) for _ in range(4)]
        h = [rng.getrandbits(32) for _ in range(8)]
        base = alu.execute_tuple(instrs, r, g, h, alu.AluRuntime())
        for _ in range(5):
            shuffled = instrs[:]
            rng.shuffle(shuffled)
            assert alu.execute_tuple(shuffled, r, g, h, alu.AluRuntime()) == base


ALU_CHECKS = {
    "encode_decode": encode_decode,
    "ewma_replay": ewma_replay,
    "avg_bounds": avg_bounds,
    "tuple_permutation": tuple_permutation,
}


@pytest.mark.parametrize("check", list(ALU_CHECKS))
def test_c4_alu_correctness(check):
    """The update unit against its oracles: instruction encoding round
    trips, the EWMA and AVG statistics replayed over streams, and the
    parallel commit of a tuple."""
    ALU_CHECKS[check]()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_c5_context_fallback_oracle_equivalence(data):
    """A miss on any key gets the state of the highest-priority fallback
    that matches it, as a linear scan of the fallbacks finds it, or the
    default context when none does; the patterns sit at the top, the
    middle or the bottom of the 128-bit key."""
    width = data.draw(st.integers(min_value=4, max_value=24))
    shift = data.draw(st.sampled_from([0, 64, 128 - width]))
    word = st.integers(min_value=0, max_value=(1 << width) - 1)
    priorities = data.draw(st.lists(st.integers(0, 100), max_size=12, unique=True))
    rules = [
        (data.draw(word) << shift, data.draw(word) << shift, p, i + 1)
        for i, p in enumerate(priorities)
    ]
    table = FlowContextTable(subtables=4, buckets=8, bucket_depth=1, seed=1)
    for value, mask, priority, state in rules:
        table.add_fallback(value, mask, priority, state)
    key = data.draw(word) << shift
    assert (table.lookup_context(key)[0] or None) == scan_lookup(rules, key)


def flipped(rng, key, mask, inside):
    """``key`` with one bit flipped inside (or outside) ``mask``."""
    bits = [i for i in range(128) if (mask >> i & 1) == inside]
    return key ^ (1 << rng.choice(bits)) if bits else key


def test_c6_flow_context_model_equivalence():
    """Random lookups, write-backs and period changes give the store and
    the two-scan reference model the same contexts, write-back results,
    occupancy, evictions, high-water mark and table-full drops after every
    operation, and the store holds exactly the model's contexts, in the
    buckets the model placed them. The table is small enough that inserts
    are dropped and that inserts drop the keys of expired contexts from
    their buckets."""
    rng = random.Random(17)
    table = FlowContextTable(subtables=2, buckets=4, bucket_depth=2, seed=5)
    ref = RefContextModel.of(table)
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
    keys = [rng.getrandbits(128) for _ in range(24)]
    for value, mask, *_ in fallbacks:
        keys.append(value)
        keys += [flipped(rng, value, mask, inside=False) for _ in range(4)]
        keys += [flipped(rng, value, mask, inside=True) for _ in range(4)]
    epoch = rng.randrange(-3, 3)
    table.advance(epoch)
    reclaims = 0
    for _ in range(4000):
        op = rng.random()
        key = rng.choice(keys)
        if op < 0.45:
            ctx = table.lookup_context(key)
            assert (ctx[0], ctx[1:]) == ref.lookup(key)
        elif op < 0.9:
            state = rng.randrange(0, 3)
            regs = [rng.randrange(0, 4) for _ in range(4)]
            listed, was_stored = member_keys(table), key in ref.entries
            assert table.write_back(key, (state, *regs)) == ref.write_back(key, state, regs)
            inserted = not was_stored and key in ref.entries
            reclaims += listed + inserted - member_keys(table)
        else:
            gap = rng.choice((0, 1, 1, 2, 5))
            epoch += gap
            table.advance(epoch)
            for _ in range(gap):
                ref.housekeep()
        assert (table.occupancy, table.evictions, table.high_water,
                table.table_full_drops) == (ref.occupancy, ref.evictions,
                                            ref.high_water, ref.table_full_drops)
        # the store holds exactly the model's contexts, each listed by the
        # bucket the model placed it in
        stored = stored_contexts(table)
        assert len(stored) == table.occupancy
        assert {k: (c[0], c[1:]) for k, c in stored} == {
            k: (e[0], tuple(e[1])) for k, e in ref.entries.items()
        }
        for k, (*_, (sub, bucket)) in ref.entries.items():
            assert k in table._members[sub * table.buckets + bucket]
    assert table.table_full_drops > 0 and reclaims > 0


def member_keys(table):
    """Keys the table's buckets list, the keys of expired contexts that no
    insert has dropped yet included."""
    return sum(map(len, table._members.values()))


# the verdicts of mac_learning on MAC_TRACE, as `flowfsm run --out` writes
# them (rows end in CRLF)
MAC_GOLDEN = """\
seq,ts,action,pre_state,post_state,row_id,cond_bits
0,0,flood,DEFAULT,PORT1,0,00000000
1,1,fwd:1,PORT1,PORT2,6,00000000
2,2,fwd:1,PORT1,PORT3,11,00000000
3,3,fwd:3,PORT3,PORT1,3,00000000
4,4,fwd:3,PORT3,PORT2,8,00000000
5,5,fwd:2,PORT2,PORT1,2,00000000
6,700,flood,DEFAULT,PORT3,10,00000000
7,701,fwd:3,PORT3,PORT2,8,00000000
8,702,fwd:2,PORT2,PORT1,2,00000000
"""


def test_c7_mac_learning_golden(tmp_path):
    """The learning switch on its golden trace writes the golden verdict
    file. Station 0xa's first packet, to the unknown 0xb, floods and
    learns port 1 for 0xa (seq 0). Every packet to a learned station
    goes out of that station's port, whichever port it came in on
    (seq 1-5, 7, 8). Station 0xa was last seen at ts 5, in the first
    300 s period, so by ts 700, two periods later, it has aged out: the
    packet to it finds DEFAULT and floods (seq 6)."""
    trace, out = tmp_path / "mac.csv", tmp_path / "verdicts.csv"
    trace.write_text(MAC_TRACE)
    argv = ["run", "--program", str(programs.bundled_path("mac_learning")),
            "--trace", str(trace), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert out.read_bytes() == MAC_GOLDEN.replace("\n", "\r\n").encode()


def test_c8_long_flow_marking():
    """In every flow of 100 seeded interleavings, packets 1-4 are counted
    and forwarded unmarked, packet 5 is the first marked one and moves the
    flow to LONG, and every later packet stays LONG and marked."""
    config = programs.bundled_program("long_flow")
    row_ids = [row.row_id for row in config.transition_rows()]
    expected = [("fwd:1", "DEFAULT", "DEFAULT", "count")] * 4 + [
        ("dscp:10:fwd:1", "DEFAULT", "LONG", "crossed")
    ]
    for seed in range(100):
        rng = random.Random(seed)
        # flows that share an ip_src or an ip_dst are still distinct flows
        keys = rng.sample([(s, d) for s in (1, 2, 3) for d in (7, 8)], rng.randint(2, 6))
        lengths = {key: rng.randint(5, 9) for key in keys}
        # a random merge of the flows, each keeping its own packet order
        order = [key for key in keys for _ in range(lengths[key])]
        rng.shuffle(order)
        ts, rows = 0, []
        for src, dst in order:
            ts += rng.randrange(0, 20_000)  # the whole trace inside one second
            rows.append({"ts": ts, "ip_src": src, "ip_dst": dst})
        engine = Engine(config, seed=seed)
        bind = programs.make_binder(config)
        verdicts = engine.run_trace(bind(trace_row(row), i) for i, row in enumerate(rows))
        per_flow = {key: [] for key in keys}
        for row, (_, _, action, pre, post, row_idx, _) in zip(rows, verdicts):
            per_flow[row["ip_src"], row["ip_dst"]].append(
                (action, pre, post, row_ids[row_idx])
            )
        for key, got in per_flow.items():
            later = [("dscp:10:fwd:1", "LONG", "LONG", "long")] * (lengths[key] - 5)
            assert got == expected + later, (seed, key)


def golden_rows(name, tmp_path):
    """The trace rows of the program's golden replay, as dicts."""
    if TRACES[name] is None:
        path = tmp_path / "mac.csv"
        path.write_text(MAC_TRACE)
        return [dict(zip(*row)) for row in traceio.read_trace(path)]
    kind, params, seed = TRACES[name]
    return gen.KINDS[kind](params, random.Random(seed))


@pytest.mark.parametrize("name", programs.BUNDLED)
def test_c9_replay_determinism(name, tmp_path):
    """Two seeded runs of ``flowfsm run`` write byte-identical verdict and
    stats files, and two engines built from one config object and stepped
    packet by packet in turn give the verdicts of one engine run alone:
    no state is shared through the config."""
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    assert replay(name, first, run_seed=7) == replay(name, second, run_seed=7)

    config = programs.bundled_program(name)
    bind = programs.make_binder(config)
    records = [bind(trace_row(row), i) for i, row in enumerate(golden_rows(name, tmp_path))]
    alone = Engine(config, seed=7)
    expected = list(alone.run_trace(records))
    a, b = (Engine(config, seed=7) for _ in range(2))
    # zip takes one verdict from a, then one from b, packet by packet
    for va, vb, want in zip(a.run_trace(records), b.run_trace(records), expected):
        assert va == vb == want
    assert a.stats.to_dict() == b.stats.to_dict() == alone.stats.to_dict()
    assert a.stats.packets == len(records) > 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**32 - 1), max_size=40))
def test_running_var_equals_repeated_exec_var(values):
    rt = alu.AluRuntime()
    state = (0, 0, 0)
    for x in values:
        state = alu.exec_var(*state, x, rt)
    assert state == oracles.running_var(values)
    assert rt.div_zero == 0
