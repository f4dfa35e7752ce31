"""RHS action execution (the Act step of §2.1 / §5).

"The actions on the RHS of the production represent changes to the WM
classes and include insertions, deletions and updates of WM elements."
Executing an action mutates working memory, which re-enters the match
machinery through the WM listener fan-out — Figure 2's cycle.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.engine.conflict import Instantiation
from repro.engine.wm import WorkingMemory
from repro.errors import ExecutionError
from repro.lang.ast import (
    Action,
    BindAction,
    CallAction,
    ComputeExpr,
    ConstExpr,
    Expression,
    HaltAction,
    MakeAction,
    ModifyAction,
    RemoveAction,
    VarExpr,
    WriteAction,
)
from repro.lang.analysis import RuleAnalysis
from repro.storage.schema import Value
from repro.storage.tuples import StoredTuple

#: A host function callable from ``(call fn ...)`` actions.
HostFunction = Callable[..., None]


class Halt(Exception):
    """Raised internally when a ``(halt)`` action executes."""


def evaluate_expression(
    expression: Expression, bindings: dict[str, Value]
) -> Value:
    """Evaluate an RHS expression under the instantiation's bindings."""
    if isinstance(expression, ConstExpr):
        return expression.value
    if isinstance(expression, VarExpr):
        if expression.name not in bindings:
            raise ExecutionError(
                f"RHS variable <{expression.name}> is unbound"
            )
        return bindings[expression.name]
    if isinstance(expression, ComputeExpr):
        left = evaluate_expression(expression.left, bindings)
        right = evaluate_expression(expression.right, bindings)
        return _arith(expression.op, left, right)
    raise ExecutionError(f"cannot evaluate expression {expression!r}")


def _arith(op: str, left: Value, right: Value) -> Value:
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise ExecutionError(
            f"(compute ...) needs numeric operands, got {left!r} {op} {right!r}"
        )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("(compute ...) division by zero")
        quotient = left / right
        return int(quotient) if quotient == int(quotient) else quotient
    if op == "mod":
        if right == 0:
            raise ExecutionError("(compute ...) modulo by zero")
        return left % right
    raise ExecutionError(f"unknown compute operator {op!r}")


@dataclass
class ActionOutcome:
    """What one rule firing did to working memory."""

    inserted: list[StoredTuple] = field(default_factory=list)
    removed: list[StoredTuple] = field(default_factory=list)
    written: list[tuple[Value, ...]] = field(default_factory=list)
    halted: bool = False


class ActionExecutor:
    """Executes the RHS of fired instantiations against a WorkingMemory."""

    def __init__(
        self,
        wm: WorkingMemory,
        host_functions: dict[str, HostFunction] | None = None,
    ) -> None:
        self.wm = wm
        self.host_functions = dict(host_functions or {})

    def register(self, name: str, function: HostFunction) -> None:
        """Expose a host function to ``(call name ...)`` actions."""
        self.host_functions[name] = function

    def execute(
        self, analysis: RuleAnalysis, instantiation: Instantiation
    ) -> ActionOutcome:
        """Run every action of the rule for *instantiation*."""
        outcome = ActionOutcome()
        bindings = dict(instantiation.binding_map())
        # Track the current identity of each matched element: a modify
        # replaces the element, and later actions on the same condition
        # number must see the replacement.
        current: list[StoredTuple | None] = list(instantiation.wmes)
        try:
            for action in analysis.rule.actions:
                self._execute_one(action, bindings, current, outcome)
        except Halt:
            outcome.halted = True
        return outcome

    def _execute_one(
        self,
        action: Action,
        bindings: dict[str, Value],
        current: list[StoredTuple | None],
        outcome: ActionOutcome,
    ) -> None:
        if isinstance(action, MakeAction):
            schema = self.wm.schema(action.class_name)
            values = {
                attribute: evaluate_expression(expression, bindings)
                for attribute, expression in action.assignments
            }
            row = self.wm.insert(action.class_name, schema.row_from_mapping(values))
            outcome.inserted.append(row)
        elif isinstance(action, RemoveAction):
            target = self._resolve(action.ce_index, current)
            if target is None:
                return  # already removed by an earlier action of this firing
            self.wm.remove(target)
            outcome.removed.append(target)
            current[action.ce_index - 1] = None
        elif isinstance(action, ModifyAction):
            target = self._resolve(action.ce_index, current)
            if target is None:
                raise ExecutionError(
                    f"(modify {action.ce_index}) after the element was removed"
                )
            changes = {
                attribute: evaluate_expression(expression, bindings)
                for attribute, expression in action.assignments
            }
            replacement = self.wm.modify(target, changes)
            outcome.removed.append(target)
            outcome.inserted.append(replacement)
            current[action.ce_index - 1] = replacement
        elif isinstance(action, HaltAction):
            raise Halt()
        elif isinstance(action, WriteAction):
            outcome.written.append(
                tuple(
                    evaluate_expression(expression, bindings)
                    for expression in action.expressions
                )
            )
        elif isinstance(action, BindAction):
            bindings[action.variable] = evaluate_expression(
                action.expression, bindings
            )
        elif isinstance(action, CallAction):
            function = self.host_functions.get(action.function)
            if function is None:
                raise ExecutionError(
                    f"(call {action.function}) has no registered host function"
                )
            function(
                *(
                    evaluate_expression(expression, bindings)
                    for expression in action.expressions
                )
            )
        else:
            raise ExecutionError(f"unknown action {action!r}")

    def _resolve(
        self, ce_index: int, current: list[StoredTuple | None]
    ) -> StoredTuple | None:
        if not 1 <= ce_index <= len(current):
            raise ExecutionError(f"action references condition {ce_index}")
        target = current[ce_index - 1]
        if target is None:
            return None
        # The element may have been removed by another rule between match
        # and act; treat that as already-gone.
        try:
            return self.wm.get(target.relation, target.tid)
        except Exception:
            return None
