"""Self-tests of the benchmark; run with

    python3 -m pytest -q perfbench/test_bench.py

They run every workload at a hundredth of its size, so they take seconds.
"""

from __future__ import annotations

import csv
import tempfile
from pathlib import Path

import pytest

import run  # first: puts the checkout's sources on sys.path
import reference
import replay
import workloads

TINY = 0.01


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_declared_metric(name, traced):
    result = run.measure(name, seed=3, seconds=0, traced=traced, scale=TINY)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == result["info"]["packets_per_pass"] * (
        result["info"]["passes_untraced"] + result["info"]["passes_traced"]
    )
    line = run.report(result, run.declared_metrics())
    assert all(m["value"] >= 0 for k, m in line["metrics"].items() if k != "trace.overhead_frac")
    if traced:
        assert line["metrics"]["engine.calls"]["value"] == result["info"]["packets_per_pass"]


def _one_pass(name: str, work: Path) -> None:
    workloads.generate(name, seed=5, scale=TINY, out_dir=work)
    _, engine, binder = replay.build(workloads.WORKLOADS[name].program, seed=5)
    replay.run_pass(engine, binder, work / workloads.TRACE_NAME, work)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corrupted_verdicts_count_as_failed(name):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _one_pass(name, work)
        verdicts = work / replay.VERDICTS_NAME
        expected = work / workloads.EXPECTED_NAME
        clean = reference.check_verdicts(verdicts, expected)
        assert clean.failed == 0 and clean.offered > 2

        with verdicts.open(newline="") as fh:
            rows = list(csv.reader(fh))
        action = rows[0].index("action")
        rows[1][action] = "drop"
        del rows[-1]
        with verdicts.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        broken = reference.check_verdicts(verdicts, expected)
        assert broken.offered == clean.offered
        assert broken.failed == 2  # one wrong action, one missing verdict

        verdicts.unlink()
        assert reference.check_verdicts(verdicts, expected).failed == clean.offered


def test_same_seed_gives_identical_digests():
    first, second = (
        run.measure("mac.sparse", seed=11, seconds=0, traced=False, scale=TINY)["info"]
        for _ in range(2)
    )
    for key in ("sha256_trace", "sha256_verdicts", "sha256_stats"):
        assert first[key] == second[key]
    other = run.measure("mac.sparse", seed=12, seconds=0, traced=False, scale=TINY)
    assert other["info"]["sha256_trace"] != first["sha256_trace"]


def test_traced_and_untraced_passes_write_identical_files():
    result = run.measure("c45.grid", seed=2, seconds=0, traced=True, scale=TINY)
    assert result["info"]["passes_identical"]
