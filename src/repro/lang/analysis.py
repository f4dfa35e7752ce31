"""Semantic analysis of rules.

Turns a :class:`~repro.lang.ast.Rule` into the normalized form every match
strategy consumes:

* validation against the literalized schemas (unknown classes/attributes,
  variables in negated CEs that no positive CE binds, RHS variables that the
  LHS never binds — all the ways a 1988 rule compiler would reject input);
* per-condition split into a variable-free predicate, equality variable
  slots, and residual (non-equality) variable tests;
* the rule's variable-sharing join graph and its connected components,
  which §4.2's matching patterns need (the RCE lists are exactly the other
  conditions in the same component);
* translation to :class:`~repro.storage.query.ConjunctSpec` lists for the
  §4.1 simplified strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RuleError
from repro.lang.ast import (
    BindAction,
    CallAction,
    ComputeExpr,
    ConditionElement,
    Constant,
    DisjunctionTest,
    Expression,
    MakeAction,
    ModifyAction,
    RemoveAction,
    Rule,
    VarExpr,
    WriteAction,
)
from repro.storage.predicate import (
    Comparison,
    Membership,
    Predicate,
    conjunction,
)
from repro.storage.query import ConjunctSpec, VariableTest
from repro.storage.schema import RelationSchema


@dataclass(frozen=True)
class AnalyzedCondition:
    """Normal form of one condition element.

    Attributes:
        index: 0-based position in the rule's LHS.
        ce: The original condition element.
        constant_predicate: Conjunction of the variable-free tests.
        equalities: ``(attribute, variable)`` pairs, one per ``=``-test on a
            variable (bindings and equality joins look identical here; which
            occurrence binds is an evaluation-order decision).
        residual: Non-equality variable tests (``^salary < <s>``).
    """

    index: int
    ce: ConditionElement
    constant_predicate: Predicate
    equalities: tuple[tuple[str, str], ...]
    residual: tuple[VariableTest, ...]

    @property
    def negated(self) -> bool:
        return self.ce.negated

    @property
    def class_name(self) -> str:
        return self.ce.class_name

    @property
    def cond_number(self) -> int:
        """The paper's 1-based Condition Element Number (CEN)."""
        return self.index + 1

    def variables(self) -> set[str]:
        return {v for _, v in self.equalities} | {
            t.variable for t in self.residual
        }

    def to_conjunct(self) -> ConjunctSpec:
        """Translate to the storage layer's query conjunct form."""
        return ConjunctSpec(
            relation=self.class_name,
            constant=self.constant_predicate,
            equalities=self.equalities,
            residual=self.residual,
            negated=self.negated,
        )


@dataclass(frozen=True)
class RuleAnalysis:
    """Everything the match strategies need to know about one rule."""

    rule: Rule
    conditions: tuple[AnalyzedCondition, ...]
    variable_classes: dict[str, set[int]] = field(hash=False)
    components: tuple[tuple[int, ...], ...] = ()

    @property
    def name(self) -> str:
        return self.rule.name

    def condition(self, cond_number: int) -> AnalyzedCondition:
        """Return the condition with the paper's 1-based CEN."""
        return self.conditions[cond_number - 1]

    def positive_conditions(self) -> tuple[AnalyzedCondition, ...]:
        return tuple(c for c in self.conditions if not c.negated)

    def negated_conditions(self) -> tuple[AnalyzedCondition, ...]:
        return tuple(c for c in self.conditions if c.negated)

    def conditions_on(self, class_name: str) -> tuple[AnalyzedCondition, ...]:
        """Conditions (positive and negated) over *class_name*."""
        return tuple(
            c for c in self.conditions if c.class_name == class_name
        )

    def related_conditions(self, index: int) -> tuple[int, ...]:
        """The paper's RCE list: other conditions in *index*'s component.

        Returns 0-based indices, sorted.  Conditions sharing no variables
        with anything (their own singleton component) have an empty list.
        """
        for component in self.components:
            if index in component:
                return tuple(i for i in component if i != index)
        return ()

    def to_conjuncts(self) -> list[ConjunctSpec]:
        """The whole LHS as a conjunctive query (§4.1 view)."""
        return [c.to_conjunct() for c in self.conditions]


def _collect_expression_vars(expression: Expression, out: set[str]) -> None:
    if isinstance(expression, VarExpr):
        out.add(expression.name)
    elif isinstance(expression, ComputeExpr):
        _collect_expression_vars(expression.left, out)
        _collect_expression_vars(expression.right, out)


def _normalize_tests(
    ce: ConditionElement, schema: RelationSchema, rule_name: str
) -> tuple[Predicate, tuple[tuple[str, str], ...], tuple[VariableTest, ...]]:
    constants: list[Predicate] = []
    equalities: list[tuple[str, str]] = []
    residual: list[VariableTest] = []
    for test in ce.tests:
        if not schema.has_attribute(test.attribute):
            raise RuleError(
                f"rule {rule_name!r}: class {ce.class_name!r} has no "
                f"attribute {test.attribute!r}"
            )
        if isinstance(test, DisjunctionTest):
            constants.append(Membership(test.attribute, test.values))
        elif isinstance(test.operand, Constant):
            constants.append(
                Comparison(test.attribute, test.op, test.operand.value)
            )
        elif test.op == "=":
            equalities.append((test.attribute, test.operand.name))
        else:
            residual.append(
                VariableTest(test.attribute, test.op, test.operand.name)
            )
    return conjunction(constants), tuple(equalities), tuple(residual)


def _connected_components(
    count: int, variable_classes: dict[str, set[int]]
) -> tuple[tuple[int, ...], ...]:
    parent = list(range(count))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for indices in variable_classes.values():
        ordered = sorted(indices)
        for other in ordered[1:]:
            union(ordered[0], other)
    groups: dict[int, list[int]] = {}
    for i in range(count):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def analyze_rule(rule: Rule, schemas: dict[str, RelationSchema]) -> RuleAnalysis:
    """Validate *rule* against *schemas* and produce its normal form."""
    conditions: list[AnalyzedCondition] = []
    variable_classes: dict[str, set[int]] = {}
    positive_vars: set[str] = set()

    for index, ce in enumerate(rule.condition_elements):
        schema = schemas.get(ce.class_name)
        if schema is None:
            raise RuleError(
                f"rule {rule.name!r}: class {ce.class_name!r} was never "
                "literalized"
            )
        constant, equalities, residual = _normalize_tests(ce, schema, rule.name)
        analyzed = AnalyzedCondition(
            index=index,
            ce=ce,
            constant_predicate=constant,
            equalities=equalities,
            residual=residual,
        )
        conditions.append(analyzed)
        for variable in analyzed.variables():
            variable_classes.setdefault(variable, set()).add(index)
        if not ce.negated:
            positive_vars |= {v for _, v in equalities}

    for condition in conditions:
        if condition.negated:
            # OPS5 semantics: a negated CE is evaluated in LHS order, so its
            # variables must be bound by an *earlier* positive CE.
            bound_earlier: set[str] = set()
            for earlier in conditions[: condition.index]:
                if not earlier.negated:
                    bound_earlier |= {v for _, v in earlier.equalities}
            unbound = condition.variables() - bound_earlier
            if unbound:
                raise RuleError(
                    f"rule {rule.name!r}: negated condition "
                    f"{condition.cond_number} uses variables "
                    f"{sorted(unbound)} not bound by an earlier positive "
                    "condition"
                )
        else:
            locally_ok = {v for _, v in condition.equalities}
            dangling = {
                t.variable for t in condition.residual
            } - positive_vars - locally_ok
            if dangling:
                raise RuleError(
                    f"rule {rule.name!r}: condition {condition.cond_number} "
                    f"tests variables {sorted(dangling)} never bound by '='"
                )

    _validate_rhs(rule, schemas, positive_vars)

    components = _connected_components(
        len(conditions), variable_classes
    )
    return RuleAnalysis(
        rule=rule,
        conditions=tuple(conditions),
        variable_classes=variable_classes,
        components=components,
    )


def _check_rhs_attribute(
    rule: Rule, schema: RelationSchema, attribute: str
) -> None:
    if not schema.has_attribute(attribute):
        raise RuleError(
            f"rule {rule.name!r}: class {schema.name!r} has no attribute "
            f"{attribute!r}"
        )


def _validate_rhs(
    rule: Rule,
    schemas: dict[str, RelationSchema],
    positive_vars: set[str],
) -> None:
    bound = set(positive_vars)
    ce_count = len(rule.condition_elements)
    for action in rule.actions:
        used: set[str] = set()
        if isinstance(action, MakeAction):
            schema = schemas.get(action.class_name)
            if schema is None:
                raise RuleError(
                    f"rule {rule.name!r}: (make {action.class_name}) names an "
                    "unliteralized class"
                )
            for attribute, expression in action.assignments:
                _check_rhs_attribute(rule, schema, attribute)
                _collect_expression_vars(expression, used)
        elif isinstance(action, (RemoveAction, ModifyAction)):
            index = action.ce_index
            if not 1 <= index <= ce_count:
                raise RuleError(
                    f"rule {rule.name!r}: action references condition "
                    f"{index}, LHS has {ce_count}"
                )
            if rule.condition_elements[index - 1].negated:
                raise RuleError(
                    f"rule {rule.name!r}: cannot remove/modify negated "
                    f"condition {index}"
                )
            if isinstance(action, ModifyAction):
                schema = schemas[rule.condition_elements[index - 1].class_name]
                for attribute, expression in action.assignments:
                    _check_rhs_attribute(rule, schema, attribute)
                    _collect_expression_vars(expression, used)
        elif isinstance(action, (WriteAction, CallAction)):
            for expression in action.expressions:
                _collect_expression_vars(expression, used)
        elif isinstance(action, BindAction):
            _collect_expression_vars(action.expression, used)
            bound.add(action.variable)
        unbound = used - bound
        if unbound:
            raise RuleError(
                f"rule {rule.name!r}: RHS uses variables {sorted(unbound)} "
                "that the LHS never binds"
            )


def analyze_program(
    rules: list[Rule], schemas: dict[str, RelationSchema]
) -> dict[str, RuleAnalysis]:
    """Analyze every rule; returns ``{rule name: analysis}``."""
    result: dict[str, RuleAnalysis] = {}
    for rule in rules:
        if rule.name in result:
            raise RuleError(f"rule {rule.name!r} defined twice")
        result[rule.name] = analyze_rule(rule, schemas)
    return result
