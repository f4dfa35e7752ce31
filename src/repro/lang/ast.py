"""Abstract syntax for OPS5-style production rules.

The paper's rules (Examples 2–4) are OPS5 productions: a name, an LHS of
(possibly negated) condition elements over WM classes, and an RHS of
``make``/``remove``/``modify``-style actions.  This module defines the rule
representation shared by every match strategy; the text syntax lives in
:mod:`repro.lang.parser`, and rules can equally be built directly through
these dataclasses (see :mod:`repro.lang.builder`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RuleError
from repro.storage.predicate import OPERATORS
from repro.storage.schema import RelationSchema, Value

# ---------------------------------------------------------------------------
# Operands and expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    """A literal operand (``Mike``, ``7``, ``nil`` -> ``None``)."""

    value: Value


@dataclass(frozen=True)
class Variable:
    """A rule variable operand (``<x>``)."""

    name: str


Operand = Constant | Variable


@dataclass(frozen=True)
class ConstExpr:
    """RHS expression: a literal value."""

    value: Value


@dataclass(frozen=True)
class VarExpr:
    """RHS expression: the value bound to an LHS variable."""

    name: str


@dataclass(frozen=True)
class ComputeExpr:
    """RHS expression: binary arithmetic (OPS5 ``compute``)."""

    op: str  # one of + - * / mod
    left: "Expression"
    right: "Expression"


Expression = ConstExpr | VarExpr | ComputeExpr


# ---------------------------------------------------------------------------
# Condition elements (LHS)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttributeTest:
    """One test on one attribute of a condition element.

    ``^salary > 100`` becomes ``AttributeTest('salary', '>', Constant(100))``;
    ``^name <M>`` becomes ``AttributeTest('name', '=', Variable('M'))``.
    A variable with op ``=`` *binds* on its first positive occurrence and
    tests equality everywhere else.
    """

    attribute: str
    op: str
    operand: Operand

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise RuleError(f"unknown test operator {self.op!r}")


@dataclass(frozen=True)
class DisjunctionTest:
    """OPS5 value disjunction: ``^attr << a b c >>`` (membership test)."""

    attribute: str
    values: tuple[Value, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise RuleError("a '<< >>' disjunction needs >= 1 value")


#: Anything that can appear as one test of a condition element.
ConditionTest = AttributeTest | DisjunctionTest


@dataclass(frozen=True)
class ConditionElement:
    """One (possibly negated) pattern over a WM class.

    Attributes not mentioned are don't-cares (the paper writes them ``*``).
    """

    class_name: str
    tests: tuple[ConditionTest, ...] = ()
    negated: bool = False

    def tests_on(self, attribute: str) -> tuple[ConditionTest, ...]:
        """All tests touching *attribute*."""
        return tuple(t for t in self.tests if t.attribute == attribute)

    def variables(self) -> set[str]:
        """All variables this condition element mentions."""
        return {
            t.operand.name
            for t in self.tests
            if isinstance(t, AttributeTest) and isinstance(t.operand, Variable)
        }

    def __str__(self) -> str:
        parts = [self.class_name]
        for test in self.tests:
            if isinstance(test, DisjunctionTest):
                inner = " ".join(repr(v) for v in test.values)
                parts.append(f"^{test.attribute} << {inner} >>")
                continue
            operand = (
                f"<{test.operand.name}>"
                if isinstance(test.operand, Variable)
                else repr(test.operand.value)
            )
            op = "" if test.op == "=" else f"{test.op} "
            parts.append(f"^{test.attribute} {op}{operand}")
        body = " ".join(parts)
        return f"-({body})" if self.negated else f"({body})"


# ---------------------------------------------------------------------------
# Actions (RHS)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MakeAction:
    """Insert a new WM element: ``(make Class ^attr expr ...)``."""

    class_name: str
    assignments: tuple[tuple[str, Expression], ...]


@dataclass(frozen=True)
class RemoveAction:
    """Delete the WM element matching condition *ce_index* (1-based)."""

    ce_index: int


@dataclass(frozen=True)
class ModifyAction:
    """Update fields of the WM element matching condition *ce_index*.

    Treated as delete + insert (§3.1: "modifications are treated as
    deletions followed by insertions").
    """

    ce_index: int
    assignments: tuple[tuple[str, Expression], ...]


@dataclass(frozen=True)
class HaltAction:
    """Stop the recognize-act cycle."""


@dataclass(frozen=True)
class WriteAction:
    """Emit values to the engine's output sink."""

    expressions: tuple[Expression, ...]


@dataclass(frozen=True)
class BindAction:
    """Bind an RHS-local variable to an expression value."""

    variable: str
    expression: Expression


@dataclass(frozen=True)
class CallAction:
    """Invoke a host function registered with the engine."""

    function: str
    expressions: tuple[Expression, ...]


Action = (
    MakeAction
    | RemoveAction
    | ModifyAction
    | HaltAction
    | WriteAction
    | BindAction
    | CallAction
)


# ---------------------------------------------------------------------------
# Rules and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """A production: name, LHS condition elements, RHS actions.

    ``salience`` is an extension used by the priority conflict-resolution
    strategy; OPS5 itself orders by recency.
    """

    name: str
    condition_elements: tuple[ConditionElement, ...]
    actions: tuple[Action, ...] = ()
    salience: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise RuleError("rule name must be non-empty")
        if not self.condition_elements:
            raise RuleError(f"rule {self.name!r} has an empty LHS")
        if all(ce.negated for ce in self.condition_elements):
            raise RuleError(
                f"rule {self.name!r} has only negated conditions; at least "
                "one positive condition element is required"
            )

    def classes(self) -> set[str]:
        """WM classes this rule's LHS mentions."""
        return {ce.class_name for ce in self.condition_elements}


@dataclass
class Program:
    """A parsed OPS5 program: class declarations, rules, and the initial
    working-memory elements from top-level ``(make ...)`` forms."""

    schemas: dict[str, RelationSchema] = field(default_factory=dict)
    rules: list[Rule] = field(default_factory=list)
    initial_elements: list[tuple[str, dict[str, Value]]] = field(
        default_factory=list
    )

    def rule(self, name: str) -> Rule:
        """Return the rule named *name*."""
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise RuleError(f"no rule named {name!r}")
