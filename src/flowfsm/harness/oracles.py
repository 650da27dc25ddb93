"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately written from the definitions, sharing no
arithmetic code with the engine or its update unit: the token bucket is
the classical counter algorithm, the running statistics are batch replays
of their recurrences, and the tree classifier walks the config's tree
data directly. Keep it that way; the acceptance suite relies on the two
sides being independent.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

WORD = 0xFFFFFFFF


def token_bucket_verdicts(
    burst: int, q: int, arrivals: Iterable[int]
) -> list[str]:
    """Classical single-rate policer: burst tokens, one per q ticks.

    Token credit is accounted exactly in ticks (one tick of elapsed time
    is one tick of credit, q ticks make a token, capped at burst * q).
    A packet is forwarded iff a whole token is available.
    """
    if burst < 1 or q < 1:
        raise ValueError("burst and q must be positive")
    cap = burst * q
    credit = cap  # first packet sees a full bucket
    last = None
    verdicts = []
    for t in arrivals:
        if last is not None:
            if t < last:
                raise ValueError("arrivals must be sorted")
            credit = min(cap, credit + (t - last))
        last = t
        if credit >= q:
            credit -= q
            verdicts.append("fwd:1")
        else:
            verdicts.append("drop")
    return verdicts


def running_mean(values: Sequence[int]) -> tuple[int, int]:
    """Replay of the integer running-mean recurrence: (count, mean)."""
    count = 0
    mean = 0
    for x in values:
        count = (count + 1) & WORD
        diff = x - mean
        step = abs(diff) // count if count else 0
        mean = (mean + (step if diff >= 0 else -step)) & WORD
    return count, mean


def running_var(values: Sequence[int]) -> tuple[int, int, int]:
    """Replay of the combined mean/variance recurrence: (count, mean, var).

    Each step evaluates every line against the values before the step, so
    the variance line uses the previous mean.
    """
    count = 0
    mean = 0
    var = 0
    for x in values:
        new_count = (count + 1) & WORD
        diff = x - mean
        sq = (diff * diff) & WORD
        mean_step = abs(diff) // new_count if new_count else 0
        mean_new = (mean + (mean_step if diff >= 0 else -mean_step)) & WORD
        var_diff = sq - var
        var_step = abs(var_diff) // new_count if new_count else 0
        var = (var + (var_step if var_diff >= 0 else -var_step)) & WORD
        mean = mean_new
        count = new_count
    return count, mean, var


def ewma_accumulator(events: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Replay of the shift-decayed accumulator: (last_ts, value).

    ``events`` are (timestamp, sample) pairs in time order. Every elapsed
    tick halves the accumulator before the sample is added; 32 or more
    ticks clear it entirely.
    """
    last = 0
    acc = 0
    for t, x in events:
        elapsed = t - last
        if elapsed < 0:
            elapsed = 0
        decayed = acc >> elapsed if elapsed < 32 else 0
        acc = (decayed + x) & WORD
        last = t & WORD
    return last, acc


def true_mean(values: Sequence[int]) -> Fraction:
    """Exact rational mean, for tolerance checks against the recurrence."""
    if not values:
        return Fraction(0)
    return Fraction(sum(values), len(values))


def classify(config, mean: int, var: int, total_bytes: int) -> str:
    """Walk a program's decision-tree data over measured flow features.

    Conditions are re-evaluated from their specs, whose operands are
    selectors (R0..R3 = 0..3, G0..G3 = 4..7, H0..H7 = 8..15): flow
    registers map onto the features (R1 mean, R2 variance, R3 total bytes),
    global registers onto the configured thresholds.
    """
    tree = config.classifier_tree
    if tree is None:
        raise ValueError(f"program {config.name!r} carries no classifier tree")
    features = {1: mean, 2: var, 3: total_bytes}
    specs = dict(config.conditions)

    def operand_value(sel: int) -> int:
        if sel < 4:  # flow register
            if sel not in features:
                raise ValueError(f"R{sel} is not a classifier feature")
            return features[sel]
        if sel < 8:  # global register
            return config.globals_init[sel - 4]
        raise ValueError("header operands have no value at decision time")

    def test(name: str) -> bool:
        spec = specs[name]
        a = operand_value(spec.lhs)
        b = operand_value(spec.rhs)
        opname = spec.op.name
        if opname == "GT":
            return a > b
        if opname == "GE":
            return a >= b
        if opname == "EQ":
            return a == b
        if opname == "LE":
            return a <= b
        return a < b

    node = tree.root
    while hasattr(node, "condition"):
        node = node.if_true if test(node.condition) else node.if_false
    return node.state
