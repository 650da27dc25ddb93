"""Byte-level fuzz of ``flowfsm run``, in process.

Each example takes a bundled program and the first rows of its digest
trace (``test_replay_digests``), mutates the bytes of one or both
(inserted, deleted and replaced bytes, truncation, CR/LF line ends, a
byte order mark, NUL), and runs ``cli.main``. The run must exit 0, 3, 4
or 5 with no traceback. A failed run's message must locate the fault: it
names the program or the trace file, or the packet, for binding and
time-order errors. It must fail exactly when the reference pipeline
refuses the input: ``reference_read_trace``, then ``reference_bind``,
then a check that no timestamp runs backwards. Otherwise it exits 0 and
writes the verdict bytes of ``ReferenceStep`` on those records, as
``csv.writer`` writes them, and the stats ``ReferenceStep`` counts. A
second test runs the same checks on programs mutated with YAML tokens.
"""

import contextlib
import csv
import functools
import io
import json
import locale
import re
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from flowfsm import programs
from flowfsm.engine import VERDICT_COLUMNS, Engine
from flowfsm.harness import cli, gen
from flowfsm.harness.traceio import TraceFormatError
from flowfsm.programs import BindError

from helpers import ReferenceStep, reference_bind, reference_read_trace
from test_replay_digests import MAC_TRACE, TRACES

# rows of each digest trace kept, header included
TRACE_LINES = 40
# bytes that move a parser between its states, and bytes that are not UTF-8
TOKENS = [bytes([b]) for b in b"0123456789,\n\r\"x- :{}[]#'\t\x00\x80\xff"] + [
    b"\xef\xbb\xbf",  # a byte order mark
    b"0x",
    b"\r\n",
]
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION, cli.EXIT_IO}


@functools.lru_cache(maxsize=None)
def trace_bytes(name):
    """The first TRACE_LINES lines of the program's digest trace."""
    spec = TRACES[name]
    if spec is None:
        text = MAC_TRACE.encode()
    else:
        kind, params, seed = spec
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "trace.csv")
            gen.gen_trace(kind, params, seed, path)
            text = path.read_bytes()
    return b"".join(text.splitlines(keepends=True)[:TRACE_LINES])


position = st.integers(min_value=0, max_value=1 << 16)
token = st.sampled_from(TOKENS)
mutation = st.one_of(
    st.tuples(st.just("insert"), position, st.lists(token, min_size=1, max_size=3)),
    st.tuples(st.just("delete"), position, st.integers(min_value=1, max_value=6)),
    st.tuples(st.just("replace"), position, token),
    st.tuples(st.just("digit"), position, st.sampled_from(b"0123456789")),
    st.tuples(st.just("truncate"), position),
    st.sampled_from([("crlf",), ("cr",), ("bom",), ("no-final-newline",)]),
)


def mutate(data, op):
    """``data`` with one mutation applied; positions wrap to its length."""
    kind, *args = op
    at = args[0] % (len(data) + 1) if args else 0
    if kind == "insert":
        return data[:at] + b"".join(args[1]) + data[at:]
    if kind == "delete":
        return data[:at] + data[at + args[1]:]
    if kind == "replace":
        return data[:at] + args[1] + data[at + 1:]
    if kind == "digit":
        # a digit for a digit, so that more runs get past the parsers
        digits = [i for i, b in enumerate(data) if 48 <= b <= 57]
        if not digits:
            return data
        i = digits[at % len(digits)]
        return data[:i] + bytes([args[1]]) + data[i + 1:]
    if kind == "truncate":
        return data[:at]
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "cr":
        return data.replace(b"\n", b"\r")
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    assert kind == "no-final-newline"
    return data.rstrip(b"\r\n")


def reference_run(program, trace):
    """(verdict bytes, stats document) of the reference pipeline, or None
    where it refuses the input: a program or a trace it cannot read, a
    row it cannot bind, or timestamps that run backwards."""
    try:
        config = programs.load(program)
        rows = reference_read_trace(trace)
        records = [reference_bind(config, row, seq) for seq, row in enumerate(rows)]
    except (programs.ProgramError, TraceFormatError, BindError):
        return None
    times = [ts for _, ts in records]
    if any(a > b for a, b in zip(times, times[1:])):
        return None
    step = ReferenceStep(Engine(config), config)
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(VERDICT_COLUMNS)
    writer.writerows(map(step.process_packet, records))
    return text.getvalue().encode(locale.getpreferredencoding(False)), step.stats()


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(programs.BUNDLED),
    program_ops=st.lists(mutation, max_size=2),
    trace_ops=st.lists(mutation, max_size=3),
)
def test_a_mutated_run_fails_located_or_equals_the_reference(name, program_ops, trace_ops):
    program_data = programs.bundled_path(name).read_bytes()
    trace_data = trace_bytes(name)
    for op in program_ops:
        program_data = mutate(program_data, op)
    for op in trace_ops:
        trace_data = mutate(trace_data, op)
    with tempfile.TemporaryDirectory() as tmp:
        program, trace = Path(tmp, "program.yaml"), Path(tmp, "trace.csv")
        out, stats = Path(tmp, "verdicts.csv"), Path(tmp, "stats.json")
        program.write_bytes(program_data)
        trace.write_bytes(trace_data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", "--program", str(program), "--trace", str(trace),
                             "--out", str(out), "--stats", str(stats)])
        err = err.getvalue()
        event(f"exit {code}")
        assert code in EXIT_CODES, err
        assert "Traceback" not in err
        expected = reference_run(program, trace)
        if expected is None:
            assert code != cli.EXIT_OK
            assert str(program) in err or str(trace) in err or re.search(
                r"\bpacket \d+: ", err
            ), err
            assert not out.exists()
        else:
            assert code == cli.EXIT_OK, err
            assert out.read_bytes() == expected[0]
            assert json.loads(stats.read_text()) == expected[1]


# YAML indicators, and tokens that tag, anchor, alias, merge or start a
# document, for mutating the program alone
YAML_TOKENS = [bytes([b]) for b in b"&*!|>%@?<"] + [b"!!int ", b"&a ", b"*a", b"<<: ", b"--- "]
yaml_tokens = st.lists(st.sampled_from(YAML_TOKENS), min_size=1, max_size=3)
# values that the loader once formatted with str() or repr(): an integer
# past the int-to-str digit limit, and a list nested past the recursion limit
BAD_VALUES = [b"0x" + b"F" * 4000, b"[" * 1500 + b"]" * 1500]
yaml_mutation = st.one_of(
    st.tuples(st.just("insert"), position, yaml_tokens),
    st.tuples(st.just("replace"), position, st.sampled_from(YAML_TOKENS)),
    st.tuples(st.just("value"), position, yaml_tokens),  # before the n-th ": "'s value
    st.tuples(st.just("swap"), position, st.sampled_from(BAD_VALUES)),  # in its place
)
# each ": " and the value after it, up to the end of its line or flow item
VALUE = re.compile(rb": (?=([^,\]}\n]*))")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(programs.BUNDLED),
    program_ops=st.lists(yaml_mutation, min_size=1, max_size=3),
)
def test_a_program_mutated_with_yaml_tokens_fails_located_or_equals_the_reference(
    name, program_ops
):
    """The run above, with the program mutated by YAML tokens or with one
    value replaced by a huge or deep one, and the trace left whole."""
    values = list(VALUE.finditer(programs.bundled_path(name).read_bytes()))
    ops = []
    for kind, *args in program_ops:
        if kind in ("value", "swap"):
            value = values[args[0] % len(values)]
            at = value.end()
            if kind == "swap":
                ops.append(("delete", at, len(value[1])))
            ops.append(("insert", at, [args[1]] if kind == "swap" else args[1]))
        else:
            ops.append((kind, *args))
    program_ops = ops
    run = test_a_mutated_run_fails_located_or_equals_the_reference.hypothesis.inner_test
    run(name, program_ops, [])
