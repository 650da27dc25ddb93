"""Run statistics: counters collected over one trace run."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class RunStats:
    """Counter snapshot for one engine run.

    Conservation invariant: the per-action counts sum to the packet total.
    ``throughput_pps`` is wall-clock derived and therefore excluded from
    the stats document unless explicitly requested, so that repeated runs
    with the same seed produce byte-identical files.
    """

    program: str = ""
    seed: int = 0
    packets: int = 0
    actions: dict[str, int] = field(default_factory=dict)
    transitions: dict[str, int] = field(default_factory=dict)
    occupancy: int = 0
    high_water: int = 0
    evictions: int = 0
    table_full_drops: int = 0
    div_zero: int = 0
    ewma_time_violations: int = 0
    hash_seeds: tuple[int, ...] = ()
    hazard_window: int = 0
    hw_faithful_div: bool = False
    throughput_pps: Optional[float] = None

    def to_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "program": self.program,
            "seed": self.seed,
            "packets": self.packets,
            "actions": dict(sorted(self.actions.items())),
            "transitions": dict(sorted(self.transitions.items())),
            "context_table": {
                "occupancy": self.occupancy,
                "high_water": self.high_water,
                "evictions": self.evictions,
                "table_full_drops": self.table_full_drops,
                "hash_seeds": list(self.hash_seeds),
            },
            "errors": {
                "div_zero": self.div_zero,
                "ewma_time_violations": self.ewma_time_violations,
            },
            "flags": {
                "hazard_window": self.hazard_window,
                "hw_faithful_div": self.hw_faithful_div,
            },
        }
        if include_timing and self.throughput_pps is not None:
            doc["throughput_pps"] = round(self.throughput_pps, 1)
        return doc

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=False)

