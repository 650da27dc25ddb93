"""flowfsm: a trace-driven model of a stateful packet-processing stage.

Packets flow through a fixed five-step loop: per-flow context lookup,
programmable comparisons, a ternary-match transition table, an action,
and a parallel register-update unit, with the updated context written
back under a (possibly different) flow key. Programs are plain config
files; see the bundled ones under ``flowfsm/data``.
"""

from .alu import AluRuntime, Instruction, Opcode, decode, encode, execute_tuple
from .conditions import CmpOp, ConditionSpec, Operand, evaluate
from .engine import Action, ActionKind, Engine, XfsmRow
from .extractor import KeyScope, PacketRecord
from .flow_context import Activity, FlowContext, FlowContextTable
from .programs import (
    ProgramConfig,
    build_engine,
    bundled_program,
    load,
    loads,
    make_binder,
    serialize,
)
from .stats import RunStats

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ActionKind",
    "Activity",
    "AluRuntime",
    "CmpOp",
    "ConditionSpec",
    "Engine",
    "FlowContext",
    "FlowContextTable",
    "Instruction",
    "KeyScope",
    "Opcode",
    "Operand",
    "PacketRecord",
    "ProgramConfig",
    "RunStats",
    "XfsmRow",
    "build_engine",
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
