"""Golden digests of ``flowfsm run --out --stats`` on every bundled program.

Each program replays a small seeded generator trace (a hand-written one
for mac_learning), and the SHA-256 of the verdict CSV and of the stats
JSON must equal the recorded values. Speed work must leave them as they
are; a change that is meant to alter a program's output updates that
program's digests and says why.

token_bucket's digests pin the start-time wrap of ``SUB R0 ts G2`` on a
trace that starts below (B-2)*Q ticks; fixing that changes them.
"""

import hashlib

import pytest

from flowfsm import programs
from flowfsm.harness import cli

# program -> (generator kind, parameters, seed); None: MAC_TRACE below
TRACES = {
    "long_flow": ("poisson_flows", {"flows": 8, "rate_pps": 50, "duration_s": 2}, 1),
    "load_balance": ("poisson_flows", {"flows": 6, "rate_pps": 40, "duration_s": 2}, 2),
    "port_scan": (
        "portscan_mix",
        {"duration_s": 6, "scanner_rate": 40, "benign_rate": 5,
         "benign_sources": 2, "probe_gap_s": 90},
        3,
    ),
    "c45_classifier": ("classifier_grid", {"repeats": 2}, 4),
    "token_bucket": ("bucket_stress", {"count": 400}, 5),
    "mac_learning": None,
}

# stations 0xa, 0xb and 0xc learn ports 1..3; 0xa ages out over the gap
MAC_TRACE = """\
ts,in_port,eth_src,eth_dst
0,1,0xa,0xb
1,2,0xb,0xa
2,3,0xc,0xa
3,1,0xa,0xc
4,2,0xb,0xc
5,1,10,0x0b
700,3,0xc,0xa
701,2,0xb,0xc
702,1,0xa,0xb
"""

# program -> (verdict CSV, stats JSON) SHA-256
DIGESTS = {
    "long_flow": (
        "9798f793165f31826e33a1a8de21f5c8f90448a1b5635d024e8b83eced9e5e03",
        "8009378d020dc8662af32517f32d577009eaa64d82d363bdfe11bccd7c150e65",
    ),
    "load_balance": (
        "4937fba4c9be8f257eb544056aa16a18a5839bbc20ca0fb6ac75d6c8e56b7121",
        "e3b3bd7efaf0e85899ae6cfc3732a6ebec054cafff2ee0e93c3fcbd73daa7987",
    ),
    "port_scan": (
        "450a14742d13ee5dca0f8bd770ead3c9e266dec5fbd651aa881f344d9c617316",
        "55e662187b55523447dfd2c97ba6574159c2f60347a7a328300762f1771b84dd",
    ),
    "c45_classifier": (
        "1f3eb215a65460e640f5e11d7e0f4d72f7501785bd442043718ecc794d984674",
        "f086f02d0962da456802bb6e9b60c45c7ab811a3f6d1535a706f024b96fd86d0",
    ),
    "token_bucket": (
        "62f4cd215d9419e2c1baa946e44f2e7a4ee8aea842085b376891017142855e4e",
        "bc91783a72521b3c07b246836223ca468f75f9cae57c54c1ac25bc2b8ba6da8a",
    ),
    "mac_learning": (
        "9691ee6f5c9566ac2beba27805d8318d7c89300c82be7b208a88489e70260150",
        "01be0305793e613a5cff31c35a56c431de6ba67222b793336d1514a14dcc8c31",
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def replay(name, tmp_path):
    trace = tmp_path / "trace.csv"
    if TRACES[name] is None:
        trace.write_text(MAC_TRACE)
    else:
        kind, params, seed = TRACES[name]
        argv = ["gen-trace", "--kind", kind, "--out", str(trace), "--seed", str(seed)]
        for key, value in params.items():
            argv += ["--param", f"{key}={value}"]
        assert cli.main(argv) == cli.EXIT_OK
    out, stats = tmp_path / "verdicts.csv", tmp_path / "stats.json"
    argv = ["run", "--program", str(programs.bundled_path(name)),
            "--trace", str(trace), "--out", str(out), "--stats", str(stats)]
    assert cli.main(argv) == cli.EXIT_OK
    return sha256(out), sha256(stats)


@pytest.mark.parametrize("name", programs.BUNDLED)
def test_replay_digests(name, tmp_path):
    assert replay(name, tmp_path) == DIGESTS[name]
