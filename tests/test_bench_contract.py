"""The package names the benchmark under ``perfbench/`` calls or wraps.

``perfbench/replay.py`` times each layer by wrapping engine methods,
context-table methods and two module globals by name, and reports zero
for any name it no longer finds. A rename in the package would therefore
read as a layer that costs nothing; these tests fail instead.
"""

import random

import pytest

from flowfsm import engine as engine_mod
from flowfsm import programs
from flowfsm.engine import Engine
from flowfsm.flow_context import FlowContextTable
from flowfsm.harness import gen, oracles, traceio

CALLED = [
    (programs, "bundled_program"),
    (programs, "make_binder"),
    (programs, "build_engine"),
    (programs, "compile_rows"),
    (traceio, "read_trace"),
    (traceio, "write_verdicts"),
    (traceio, "write_stats"),
    (traceio, "write_trace"),
    (Engine, "run_trace"),
    (Engine, "process_packet"),
    (FlowContextTable, "lookup_context"),
    (FlowContextTable, "write_back"),
    (FlowContextTable, "housekeep"),
    (FlowContextTable, "get"),
    (engine_mod, "evaluate_compiled"),
    (engine_mod, "execute_plan"),
    (gen, "poisson_flows"),
    (gen, "classifier_grid"),
    (oracles, "running_var"),
    (oracles, "classify"),
]


@pytest.mark.parametrize(
    "owner, name", CALLED, ids=[f"{o.__name__}.{n}" for o, n in CALLED]
)
def test_benchmark_names_exist(owner, name):
    assert callable(getattr(owner, name, None))


def test_built_engine_has_what_the_benchmark_reads():
    config = programs.bundled_program("c45_classifier")
    engine = programs.build_engine(config, seed=1)
    assert isinstance(engine.context, FlowContextTable)
    assert engine.stats.packets == 0
    assert all(isinstance(row.priority, int) for row in programs.compile_rows(config))


def test_wrapped_names_are_called_during_a_run(monkeypatch):
    """Every name the benchmark wraps is reached by a replay, so that its
    wrapper counts calls: the engine and table methods on the instances,
    the condition and ALU entry points as module globals."""
    config = programs.bundled_program("c45_classifier")
    engine = programs.build_engine(config, seed=1)
    bind = programs.make_binder(config)
    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)

    count(engine, "process_packet")
    for name in ("lookup_context", "write_back", "housekeep"):
        count(engine.context, name)
    count(engine_mod, "evaluate_compiled")
    count(engine_mod, "execute_plan")
    # six repeats span more than one 60 s management period
    rows = gen.classifier_grid({"repeats": 6}, random.Random(1))
    records = (bind(row, i) for i, row in enumerate(rows))
    packets = sum(1 for _ in engine.run_trace(records))
    assert calls["process_packet"] == calls["lookup_context"] == packets > 0
    assert calls["write_back"] == packets
    assert calls["housekeep"] > 0
    assert calls["evaluate_compiled"] == packets
    assert calls["execute_plan"] > 0


def test_three_row_replay_in_the_benchmark_call_shapes(tmp_path):
    """The calls ``perfbench/replay.py`` makes, with the arguments it passes:
    a signature change fails here rather than in the benchmark."""
    trace = tmp_path / "trace.csv"
    trace.write_text("ts,ip_src,ip_dst\n0,1,2\n1,1,2\n2,3,4\n")
    config = programs.bundled_program("long_flow")
    bind = programs.make_binder(config)
    engine = programs.build_engine(config, seed=5)
    rows = traceio.read_trace(trace)
    records = (bind(row, i) for i, row in enumerate(rows))
    count = traceio.write_verdicts(tmp_path / "verdicts.csv", engine.run_trace(records))
    traceio.write_stats(tmp_path / "stats.json", engine.stats)
    assert count == engine.stats.packets == 3
    assert (tmp_path / "verdicts.csv").read_text().count("\n") == 4
