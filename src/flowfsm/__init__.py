"""flowfsm: a trace-driven model of a stateful packet-processing stage.

Packets flow through a fixed five-step loop: per-flow context lookup,
programmable comparisons, a ternary-match transition table, an action,
and a parallel register-update unit, with the updated context written
back under a (possibly different) flow key. Programs are plain config
files; see the bundled ones under ``flowfsm/data``.
"""

from .alu import AluRuntime, Instruction, Opcode, decode, encode, execute_tuple
from .conditions import CmpOp, ConditionSpec, evaluate
from .engine import Engine
from .flow_context import FlowContextTable
from .programs import (
    ProgramConfig,
    bundled_program,
    load,
    loads,
    make_binder,
    serialize,
)
from .stats import RunStats

__version__ = "0.1.0"

__all__ = [
    "AluRuntime",
    "CmpOp",
    "ConditionSpec",
    "Engine",
    "FlowContextTable",
    "Instruction",
    "Opcode",
    "ProgramConfig",
    "RunStats",
    "bundled_program",
    "decode",
    "encode",
    "evaluate",
    "execute_tuple",
    "load",
    "loads",
    "make_binder",
    "serialize",
]
