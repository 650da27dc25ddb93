"""Acceptance criteria that compare whole bundled programs with the
independent oracles of ``flowfsm.harness.oracles``.

The criteria are numbered as in ``conftest.py``, which prints one summary
line per criterion.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfsm import alu, programs
from flowfsm.harness import gen, oracles

from helpers import token_bucket_config, window_bound_holds


def assert_policer_equals_oracle(burst, q, arrivals):
    """Replay one flow's arrivals; returns the forwarded arrival times."""
    config = token_bucket_config(burst, q)
    engine = programs.build_engine(config, seed=1)
    bind = programs.make_binder(config)
    rows = ({"ts": t, "ip_src": gen.STRESS_IP} for t in arrivals)
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


def test_c3_classifier_equivalence():
    """Every flow of the classifier grid ends its window in the class the
    tree oracle gives for its running statistics, with the window's
    registers equal to the statistics oracle, and every leaf is reached.
    Twelve repeats span about 156 s, so the scans at 60 s and 120 s evict
    decided flows while later ones are measured."""
    config = programs.bundled_program("c45_classifier")
    rows = gen.classifier_grid({"repeats": 12}, random.Random(1))
    sizes = {}
    decided = {}
    engine = programs.build_engine(config, seed=1)
    bind = programs.make_binder(config)
    records = [bind(row, i) for i, row in enumerate(rows)]
    for row, record, verdict in zip(rows, records, engine.run_trace(records)):
        src = row["ip_src"]
        if verdict[3] == "MEASURE" and verdict[4] != "MEASURE":
            ctx = engine.context.get(engine._lookup_scope.key(record.h))
            decided[src] = verdict[4], verdict[5], tuple(ctx.r[:4])
        elif src not in decided:
            sizes.setdefault(src, []).append(row["pkt_len"])
    assert decided.keys() == sizes.keys()
    assert engine.stats.evictions > 0
    for src, (label, _, regs) in decided.items():
        count, mean, var = oracles.running_var(sizes[src])
        total = sum(sizes[src]) & 0xFFFFFFFF
        assert regs == (count, mean, var, total), src
        assert label == oracles.classify(config, mean, var, total), src
    tree_rows = range(len(config.rows), len(programs.compile_rows(config)))
    assert {row_id for _, row_id, _ in decided.values()} == set(tree_rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**32 - 1), max_size=40))
def test_running_var_equals_repeated_exec_var(values):
    rt = alu.AluRuntime()
    state = (0, 0, 0)
    for x in values:
        state = alu.exec_var(*state, x, rt)
    assert state == oracles.running_var(values)
    assert rt.div_zero == 0
