"""The generators the golden replays and the benchmark draw traces from:
deterministic for a seed, sorted by ``ts``, and of the documented shape."""

import random
from collections import Counter

import pytest

from flowfsm.engine import OptionError
from flowfsm.harness import gen

POISSON = {"flows": 6, "rate_pps": 40, "duration_s": 3, "ports": 4}
PORTSCAN = {
    "duration_s": 5, "scanner_rate": 7, "benign_rate": 3, "benign_sources": 4,
    "probe_gap_s": 90,
}


@pytest.mark.parametrize(
    "make, params", [(gen.poisson_flows, POISSON), (gen.portscan_mix, PORTSCAN)]
)
def test_deterministic_for_a_seed_and_sorted_by_ts(make, params):
    rows = make(params, random.Random(11))
    assert rows == make(params, random.Random(11))
    assert rows != make(params, random.Random(12))
    times = [row["ts"] for row in rows]
    assert times == sorted(times)


def test_poisson_flows_shape():
    rows = gen.poisson_flows(POISSON, random.Random(3))
    assert all(0 <= row["ts"] < POISSON["duration_s"] * 10**6 for row in rows)
    # one ip_src per flow, and a flow's other key fields never change
    flows = {}
    for row in rows:
        key = (row["ip_dst"], row["sport"], row["in_port"])
        assert flows.setdefault(row["ip_src"], key) == key
    assert len(flows) == POISSON["flows"]
    assert len(set(flows.values())) == POISSON["flows"]
    assert {port for _, _, port in flows.values()} == set(range(1, POISSON["ports"] + 1))


def test_portscan_mix_shape():
    rows = gen.portscan_mix(PORTSCAN, random.Random(3))
    assert all(row["tcp_flags"] == 0x02 for row in rows)
    *scan, probe = rows
    duration = PORTSCAN["duration_s"]
    # the probe: one scanner SYN probe_gap_s after the last scan second
    assert (probe["ts"], probe["ip_src"]) == (
        duration - 1 + PORTSCAN["probe_gap_s"],
        gen.SCANNER_IP,
    )
    per_second = Counter((row["ts"], row["ip_src"] == gen.SCANNER_IP) for row in scan)
    benign = PORTSCAN["benign_sources"] * PORTSCAN["benign_rate"]
    assert per_second == {
        **{(t, True): PORTSCAN["scanner_rate"] for t in range(duration)},
        **{(t, False): benign for t in range(duration)},
    }
    sources = {row["ip_src"] for row in scan} - {gen.SCANNER_IP}
    assert len(sources) == PORTSCAN["benign_sources"]
    # the scanner probes a fresh port every time
    ports = [row["dport"] for row in rows if row["ip_src"] == gen.SCANNER_IP]
    assert len(set(ports)) == len(ports)


def test_portscan_mix_without_a_probe_ends_at_the_last_second():
    rows = gen.portscan_mix({**PORTSCAN, "probe_gap_s": 0}, random.Random(3))
    assert rows[-1]["ts"] == PORTSCAN["duration_s"] - 1
    assert len(rows) == PORTSCAN["duration_s"] * (
        PORTSCAN["scanner_rate"] + PORTSCAN["benign_sources"] * PORTSCAN["benign_rate"]
    )


@pytest.mark.parametrize("kind", sorted(gen.KINDS))
def test_each_kind_reads_the_parameter_keys_it_declares(kind):
    """``gen_trace`` rejects a key outside ``PARAMS``, so the keys a
    generator reads must be those it declares."""

    class Recorded(dict):
        def get(self, key, default=None):
            read.append(key)
            return default

    read = []
    gen.KINDS[kind](Recorded(), random.Random(0))
    assert tuple(read) == tuple(gen.PARAMS[kind])


@pytest.mark.parametrize(
    "kind, key, value, shown",
    [
        ("poisson_flows", "rate_pps", 0, "0 is below 1"),  # ZeroDivisionError
        ("poisson_flows", "rate_pps", -1, "-1 is below 1"),  # the flow never ends
        ("poisson_flows", "ports", 0, "0 is below 1"),
        ("poisson_flows", "flows", -1, "-1 is below 0"),
        ("bucket_stress", "count", -(16**4000), f"-0x1{'0' * 36}... (4004 characters) is below 0"),
    ],
    ids=["rate-0", "rate-negative", "ports-0", "flows-negative", "count-4000-hex-digits"],
)
def test_gen_trace_refuses_a_parameter_below_its_least_value(kind, key, value, shown, tmp_path):
    """It is checked before any row is generated."""
    out = tmp_path / "trace.csv"
    with pytest.raises(OptionError) as err:
        gen.gen_trace(kind, {key: value}, 0, out)
    assert str(err.value) == f"{kind} parameter {key!r}: {shown}"
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(gen.KINDS))
def test_gen_trace_takes_each_least_value(kind, tmp_path):
    assert gen.gen_trace(kind, gen.PARAMS[kind], 0, tmp_path / "trace.csv") >= 0
