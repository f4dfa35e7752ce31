"""Production-system engine: WM, conflict set, resolution, actions, cycle."""

from repro.engine.actions import (
    ActionExecutor,
    ActionOutcome,
    Halt,
    evaluate_expression,
)
from repro.engine.conflict import ConflictSet, Instantiation, InstantiationKey
from repro.engine.interpreter import (
    FiredRule,
    ProductionSystem,
    RunResult,
    TraceEvent,
)
from repro.engine.resolution import (
    SeededRandom,
    fifo,
    lex,
    make_resolver,
    mea,
    priority,
)
from repro.engine.wm import WMListener, WorkingMemory

__all__ = [
    "ActionExecutor",
    "ActionOutcome",
    "ConflictSet",
    "FiredRule",
    "Halt",
    "Instantiation",
    "InstantiationKey",
    "ProductionSystem",
    "RunResult",
    "TraceEvent",
    "SeededRandom",
    "WMListener",
    "WorkingMemory",
    "evaluate_expression",
    "fifo",
    "lex",
    "make_resolver",
    "mea",
    "priority",
]
