"""Trace-replay benchmark of flowfsm, one workload per run.

    python3 perfbench/run.py --workload long_flow.poisson --seed 1 --seconds 30 --trace 0

A run generates its workload's trace and reference verdicts from the seed
in a child process, then, in this process, times program set-up and
replays the trace in whole passes, each through a fresh engine, until
``--seconds`` have gone by. Every pass's verdicts are checked against the
reference, and all passes must write byte-identical verdict and stats
files. With ``--trace 1`` untraced and traced passes alternate and the
per-layer figures are reported instead of the end-to-end ones.

Metric names, units and directions are declared in BENCHMARK.json at the
root of the checkout. The last line of standard output is the result as
one JSON object. Exit codes: 0 correct, 1 wrong verdicts or a failed run,
2 no flowfsm sources in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark measures the sources next to it, never an installed copy.
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "flowfsm" / "__init__.py").is_file():
    print(f"perfbench: no flowfsm sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import reference  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"
# set-ups timed before each pass; the last one builds the pass's engine.
# Spreading them over the run keeps one slow moment from setting the median.
SETUPS_PER_PASS = 5
GEN_TIMEOUT_S = 150


class RunFailed(Exception):
    """The replay raised; every offered packet counts as failed."""

    def __init__(self, offered: int):
        super().__init__(f"replay failed, {offered} packets offered")
        self.offered = offered


def declared_metrics() -> dict[str, dict[str, str]]:
    """name -> {"unit", "set"} for every metric in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: {"unit": m["unit"], "set": kind}
        for kind in ("end_to_end", "per_layer")
        for m in spec[kind]
    }


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def percentile(ordered: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def generate(workload: str, seed: int, scale: float, out_dir: Path) -> None:
    """Write the trace and the reference verdicts in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [
            sys.executable,
            str(HERE / "workloads.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--scale", repr(scale),
            "--out", str(out_dir),
        ],
        env=env,
        check=True,
        timeout=GEN_TIMEOUT_S,
    )


def measure(
    workload: str, seed: int, seconds: float, traced: bool, scale: float = 1.0
) -> dict:
    """Run one workload; returns the result document plus an ``info`` part."""
    program = workloads.WORKLOADS[workload].program
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        work = Path(tmp)
        generate(workload, seed, scale, work)
        trace = work / workloads.TRACE_NAME
        expected = work / workloads.EXPECTED_NAME
        with expected.open() as fh:
            offered = sum(1 for _ in fh) - 1
        trace_digest = sha256(trace)
        try:
            setups: list[float] = []
            tracer = replay.Tracer(replay.row_ranks(program))
            plain: list = []
            traced_passes: list = []
            outcomes: dict[tuple[str, str], reference.Check] = {}
            attempted = failed = pre_state_wrong = 0
            peak_rss_mb = 0.0
            begin = time.perf_counter()
            while True:
                use_tracer = traced and len(traced_passes) < len(plain)
                gc.collect()
                for _ in range(SETUPS_PER_PASS):
                    setup_s, engine, binder = replay.build(program, seed)
                    setups.append(setup_s)
                done = replay.run_pass(
                    engine, binder, trace, work, tracer if use_tracer else replay.NoTrace()
                )
                if use_tracer:
                    traced_passes.append(done)
                    last_stats = engine.stats
                else:
                    plain.append(done)
                if not peak_rss_mb:
                    # the first pass sets the peak; later passes repeat it
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                del engine, binder
                check = _check_pass(work, expected, outcomes)
                attempted += check.offered
                failed += check.failed
                pre_state_wrong += check.pre_state_wrong
                # stop where the run ends nearest to --seconds
                left = seconds - (time.perf_counter() - begin)
                if left < done.seconds / 2 and (traced_passes or not traced):
                    break
        except Exception as exc:
            raise RunFailed(offered) from exc
    try:
        WORK_ROOT.rmdir()
    except OSError:  # another run still works there
        pass

    if traced:
        metrics = layer_metrics(tracer, plain, traced_passes, last_stats)
    else:
        intervals = sorted(itertools.chain.from_iterable(p.intervals for p in plain))
        metrics = {
            "pps": statistics.median(p.packets / p.seconds for p in plain),
            "pkt_p50_us": percentile(intervals, 0.50) / 1e3,
            "pkt_p99_us": percentile(intervals, 0.99) / 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
    verdict_digest, stats_digest = next(iter(outcomes))
    return {
        "correct": failed == 0 and len(outcomes) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "workload": workload,
            "program": program,
            "seed": seed,
            "packets_per_pass": offered,
            "passes_untraced": len(plain),
            "passes_traced": len(traced_passes),
            "pkt_samples": sum(len(p.intervals) for p in plain),
            "setup_samples": len(setups),
            "failed_frac": failed / attempted,
            "passes_identical": len(outcomes) == 1,
            "pre_state_wrong_frac": pre_state_wrong / attempted,
            "sha256_trace": trace_digest,
            "sha256_verdicts": verdict_digest,
            "sha256_stats": stats_digest,
        },
    }


def _check_pass(work: Path, expected: Path, outcomes: dict) -> reference.Check:
    """Check a pass's verdicts; passes with identical output files share one check.

    ``outcomes`` maps (verdict digest, stats digest) to its check, in the
    order the outputs first appeared.
    """
    digests = (sha256(work / replay.VERDICTS_NAME), sha256(work / replay.STATS_NAME))
    if digests not in outcomes:
        outcomes[digests] = reference.check_verdicts(work / replay.VERDICTS_NAME, expected)
    return outcomes[digests]


def layer_metrics(tracer, plain: list, traced_passes: list, stats) -> dict:
    """Per-layer figures of the traced passes; counts are per pass."""
    packets = sum(p.packets for p in traced_passes)
    wall_ns = sum(p.seconds for p in traced_passes) * 1e9
    passes = len(traced_passes)

    def us(span: str) -> float:
        return tracer.self_ns[span] / packets / 1e3

    def calls(span: str) -> int:
        return tracer.calls[span] // passes

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    scans = tracer.calls["flow_context.housekeep"]
    scan_ns = tracer.self_ns["flow_context.housekeep"]
    traced_pps = statistics.median(p.packets / p.seconds for p in traced_passes)
    plain_pps = statistics.median(p.packets / p.seconds for p in plain)
    return {
        "traceio.read_us": us("traceio.read"),
        "traceio.read_calls": calls("traceio.read"),
        "programs.bind_us": us("programs.bind"),
        "programs.bind_calls": calls("programs.bind"),
        "traceio.write_us": us("traceio.write"),
        "traceio.write_calls": calls("traceio.write"),
        "engine.self_us": us("engine"),
        "engine.calls": calls("engine"),
        "tcam.xfsm_lookup_us": us("tcam.xfsm_lookup"),
        "tcam.xfsm_lookup_calls": calls("tcam.xfsm_lookup"),
        "tcam.rows_scanned_mean": ratio(
            tracer.rows_scanned, tracer.calls["tcam.xfsm_lookup"]
        ),
        "flow_context.lookup_us": us("flow_context.lookup"),
        "flow_context.lookup_calls": calls("flow_context.lookup"),
        "flow_context.lookup_hit_frac": ratio(
            tracer.lookup_hits, tracer.calls["flow_context.lookup"]
        ),
        "flow_context.write_back_us": us("flow_context.write_back"),
        "flow_context.write_back_calls": calls("flow_context.write_back"),
        "flow_context.inserts": stats.occupancy + stats.evictions,
        "flow_context.evictions": stats.evictions,
        "flow_context.table_full_drops": stats.table_full_drops,
        "flow_context.high_water": stats.high_water,
        "flow_context.housekeep_scans": calls("flow_context.housekeep"),
        "flow_context.housekeep_ms_per_scan": ratio(scan_ns, scans) / 1e6,
        "flow_context.housekeep_share": ratio(scan_ns, wall_ns),
        "conditions.eval_us": us("conditions.eval"),
        "conditions.calls": calls("conditions.eval"),
        "alu.exec_us": us("alu.exec"),
        "alu.calls": calls("alu.exec"),
        "trace.overhead_frac": 1 - traced_pps / plain_pps,
    }


def report(result: dict, declared: dict) -> dict:
    """Print every metric with its unit; returns the result line's object."""
    kind = "per_layer" if result["info"]["passes_traced"] else "end_to_end"
    wanted = sorted(n for n, d in declared.items() if d["set"] == kind)
    if sorted(result["metrics"]) != wanted:
        raise ValueError(f"measured {sorted(result['metrics'])}, declared {wanted}")
    for key, value in result["info"].items():
        print(f"{key:36} {value}")
    metrics = {}
    for name, value in result["metrics"].items():
        unit = declared[name]["unit"]
        print(f"{name:36} {value:<14.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {key: result[key] for key in ("correct", "attempted", "failed")} | {
        "metrics": metrics
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = declared_metrics()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        traceback.print_exception(exc.__cause__, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.offered,
                          "failed": exc.offered, "metrics": {}}))
        return 1
    print(json.dumps(report(result, declared)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
