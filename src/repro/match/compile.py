"""Attach-time rule compilation: join plans and specialized kernels.

Every network is compiled: this module lowers alpha tests and join tests
at *attach* time, instead of walking predicate AST closures
(:func:`repro.storage.predicate.compile_predicate`) and dispatching
:class:`~repro.match.rete.runtime.JoinTest` records per candidate pair:

* :func:`compile_alpha_test` fuses a whole constant-test conjunction into
  one ``compile()``-generated code object over the row tuple — positions
  resolved, equality and membership inlined (``compare("=", a, b)`` is
  exactly ``a == b`` over the value domain: a string never equals a
  non-string under either), ordering guarded by the same ``_orderable``
  rules as :func:`~repro.storage.predicate.compare`.
* :func:`plan_join` splits a node's join tests into the *equality subset*
  (hash-indexable — ``compare("=")`` agrees with dict-key equality) and
  the *residual*, ordered by operator selectivity, and rejects any plan
  that would exceed the CORGI-style quadratic per-probe envelope
  (:class:`PlanBoundError`).
* :class:`JoinKernel` executes a plan against the memories' persistent
  hash indexes: a keyed probe is one bucket lookup plus the residual
  tests inside that bucket — O(bucket) instead of the O(opposing memory)
  interpreted scan.  Pair order is bit-identical to the interpreted
  nested loop (token-major on LEFT activations, element-major on RIGHT;
  buckets preserve memory insertion order), which is what keeps the
  compiled network snapshot-equal to the interpreted scan.

A rule that cannot be lowered is refused at attach time with a
:class:`CompileError` naming the rule and the node.  The interpreted scan
survives only as the differential oracle's reference
(:mod:`repro.check.reference`).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.storage.predicate import (
    And,
    AttributeComparison,
    Comparison,
    Membership,
    Not,
    Or,
    Predicate,
    TruePredicate,
    compare,
)
from repro.storage.schema import RelationSchema

#: The CORGI-style envelope: no per-probe plan may cost more than
#: O(T × R) — the interpreted nested scan.  Hash-keyed plans are linear.
MAX_COST_EXPONENT = 2

#: Deterministic selectivity rank per operator, best first: equality keys
#: the hash index; orderings halve on average; ``<>`` barely filters.
_SELECTIVITY = {"=": 0, "<": 1, ">": 1, "<=": 2, ">=": 2, "<>": 3}


class PlanBoundError(Exception):
    """A join plan violates the quadratic worst-case envelope."""


class CompileError(Exception):
    """A rule could not be lowered to a kernel; names the rule and node."""


# ---------------------------------------------------------------------------
# Join planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinPlan:
    """An executable ordering of one two-input node's join tests.

    ``level`` is the LEFT memory's level (condition elements covered by
    its tokens); a test ``levels_up`` above the candidate reads the LEFT
    slot column ``level - levels_up``.
    """

    level: int
    eq_tests: tuple
    residual: tuple

    @property
    def kind(self) -> str:
        """``hash`` (keyed probe), ``nested`` (scan), or ``cross``."""
        if self.eq_tests:
            return "hash"
        return "nested" if self.residual else "cross"

    @property
    def cost_exponent(self) -> int:
        """Per-probe cost as the exponent of O((T + R)^e).

        Hash-keyed and cross-product plans are output-linear (1); a
        residual-only plan scans every pair (2); any test reaching above
        the LEFT memory's level cannot be answered from the slot columns
        and would force a per-pair chain walk (+1) — those plans are
        rejected by :func:`validate_plan`.
        """
        exponent = 1 if (self.eq_tests or not self.residual) else 2
        if any(
            test.levels_up > self.level
            for test in (*self.eq_tests, *self.residual)
        ):
            exponent += 1
        return exponent

    def describe(self) -> dict:
        """JSON-ready plan summary for ``ReteNetwork.describe()``."""
        return {
            "kind": self.kind,
            "eq": len(self.eq_tests),
            "residual": [test.key() for test in self.residual],
            "cost_exponent": self.cost_exponent,
        }


def validate_plan(plan: JoinPlan) -> JoinPlan:
    """Reject *plan* unless it fits the quadratic envelope."""
    if plan.cost_exponent > MAX_COST_EXPONENT:
        raise PlanBoundError(
            f"join plan exceeds the O(n^{MAX_COST_EXPONENT}) bound "
            f"(cost exponent {plan.cost_exponent}): eq={plan.eq_tests} "
            f"residual={plan.residual} at level {plan.level}"
        )
    return plan


def plan_join(tests: tuple, level: int) -> JoinPlan:
    """Order *tests* by selectivity into a validated :class:`JoinPlan`.

    Equality tests form the hash key (sorted by their canonical key for
    determinism); the residual runs inside each bucket, most selective
    operator first.
    """
    eq = tuple(
        sorted((t for t in tests if t.op == "="), key=lambda t: t.key())
    )
    residual = tuple(
        sorted(
            (t for t in tests if t.op != "="),
            key=lambda t: (_SELECTIVITY.get(t.op, 9), t.key()),
        )
    )
    return validate_plan(JoinPlan(level=level, eq_tests=eq, residual=residual))


# ---------------------------------------------------------------------------
# Join kernels
# ---------------------------------------------------------------------------


class JoinKernel:
    """Executes one :class:`JoinPlan` against a node's LEFT/RIGHT memories.

    A keyed (``hash``) plan registers its equality key with both
    memories at attach time — RIGHT: the tuple of own positions; LEFT:
    the tuple of ``(slot, other_position)`` pairs — and from then on
    probes their persistent, incrementally maintained indexes
    (:meth:`AlphaMemory.index_on` / :meth:`BetaMemory.index_on`).  Nodes
    with the same key on the same memory share one index.  Key-less
    plans (``nested``/``cross``) scan the opposing memory.

    Accounting: an indexed probe counts one ``index_lookups``; each
    residual test evaluated (inside the bucket, or per scanned partner
    for a key-less plan) counts one ``comparisons``.  A keyed probe is
    therefore O(bucket), where the interpreted scan counts one
    comparison per test per opposing-memory row.
    """

    __slots__ = ("plan", "label", "bmem", "amem", "counters", "_res", "_own",
                 "_left_key", "_lefts", "_rights")

    def __init__(self, plan: JoinPlan, bmem, amem, counters) -> None:
        self.plan = plan
        self.label = plan.kind
        self.bmem = bmem
        self.amem = amem
        self.counters = counters
        level = plan.level
        # residual spec: (left slot column, other position, own position, op)
        self._res = tuple(
            (level - t.levels_up, t.other_position, t.own_position, t.op)
            for t in plan.residual
        )
        self._own = tuple(t.own_position for t in plan.eq_tests)
        self._left_key = tuple(
            (level - t.levels_up, t.other_position) for t in plan.eq_tests
        )
        keyed = bool(plan.eq_tests)
        self._lefts = bmem.index_on(self._left_key) if keyed else None
        self._rights = amem.index_on(self._own) if keyed else None

    def residual_ok(self, row: int, values: tuple) -> bool:
        """Do the residual tests hold between LEFT *row* and RIGHT *values*?"""
        slots = self.bmem.slot_column
        counters = self.counters
        for slot, other_pos, own_pos, op in self._res:
            counters.comparisons += 1
            other = slots(slot)[row]
            if other is None:
                return False
            if not compare(op, values[own_pos], other.values[other_pos]):
                return False
        return True

    def lefts_for(self, wme) -> list:
        """LEFT tokens joining *wme*, in LEFT-memory insertion order."""
        values = wme.values
        if self._lefts is not None:
            self.counters.index_lookups += 1
            rows = self._lefts.get(tuple([values[own] for own in self._own]))
            if not rows:
                return []
        else:
            rows = self.bmem.rows()
        token_at = self.bmem.token_at
        if not self._res:
            return [token_at(row) for row in rows]
        return [
            token_at(row)
            for row in rows
            if self.residual_ok(row, values)
        ]

    def rights_for(self, token) -> list:
        """RIGHT elements joining *token*, in RIGHT-memory insertion order."""
        row = self.bmem.row_of(token)
        if self._rights is not None:
            # An empty tested slot (negated CE upstream) fails every test.
            key = self.bmem.key_at(row, self._left_key)
            if key is None:
                return []
            self.counters.index_lookups += 1
            rows = self._rights.get(key)
            if not rows:
                return []
            wme_at = self.amem.wme_at
            wmes = [wme_at(at) for at in rows]
        else:
            wmes = self.amem.wmes()
        if not self._res:
            return wmes
        return [wme for wme in wmes if self.residual_ok(row, wme.values)]


# ---------------------------------------------------------------------------
# Alpha-test compilation
# ---------------------------------------------------------------------------

_ORDERING_PYOPS = {"<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _const_ref(value, consts: list) -> str:
    consts.append(value)
    return f"_K[{len(consts) - 1}]"


def _predicate_expr(
    predicate: Predicate, schema: RelationSchema, consts: list
) -> str:
    """One Python expression equivalent to *predicate* over row tuple ``v``."""
    if isinstance(predicate, TruePredicate):
        return "True"
    if isinstance(predicate, Comparison):
        slot = f"v[{schema.position(predicate.attribute)}]"
        value = predicate.value
        if predicate.op == "=":
            return f"({slot} == {_const_ref(value, consts)})"
        if predicate.op == "<>":
            return f"({slot} != {_const_ref(value, consts)})"
        pyop = _ORDERING_PYOPS[predicate.op]
        if value is None:
            return "False"  # ordering against nil never holds
        if isinstance(value, (int, float)):
            return (
                f"(isinstance({slot}, (int, float)) and "
                f"{slot} {pyop} {_const_ref(value, consts)})"
            )
        return (
            f"({slot} is not None and not isinstance({slot}, (int, float)) "
            f"and {slot} {pyop} {_const_ref(value, consts)})"
        )
    if isinstance(predicate, Membership):
        slot = f"v[{schema.position(predicate.attribute)}]"
        return f"({slot} in {_const_ref(tuple(predicate.values), consts)})"
    if isinstance(predicate, AttributeComparison):
        left = f"v[{schema.position(predicate.left)}]"
        right = f"v[{schema.position(predicate.right)}]"
        if predicate.op == "=":
            return f"({left} == {right})"
        if predicate.op == "<>":
            return f"({left} != {right})"
        return f"_compare({predicate.op!r}, {left}, {right})"
    if isinstance(predicate, And):
        if not predicate.parts:
            return "True"
        return "(" + " and ".join(
            _predicate_expr(part, schema, consts) for part in predicate.parts
        ) + ")"
    if isinstance(predicate, Or):
        if not predicate.parts:
            return "False"
        return "(" + " or ".join(
            _predicate_expr(part, schema, consts) for part in predicate.parts
        ) + ")"
    if isinstance(predicate, Not):
        return f"(not {_predicate_expr(predicate.part, schema, consts)})"
    raise CompileError(f"cannot lower predicate {predicate!r}")


def compile_alpha_test(
    predicate: Predicate, schema: RelationSchema
) -> Callable[[tuple], bool]:
    """Fuse a constant-test conjunction into one generated code object.

    Equality and membership are inlined as plain ``==`` / ``in`` (exactly
    :func:`compare`'s ``=`` over the value domain); ordering against a
    constant is specialized on the constant's type, reproducing the
    ``_orderable`` guard.  The interpreted closure chain this replaces
    costs one Python call per predicate node per row.
    """
    consts: list = []
    expression = _predicate_expr(predicate, schema, consts)
    source = f"lambda v: {expression}"
    namespace = {
        "_compare": compare,
        "_K": tuple(consts),
        "isinstance": isinstance,
        "int": int,
        "float": float,
        "__builtins__": {},
    }
    return eval(compile(source, "<repro.match.compile>", "eval"), namespace)


def compile_condition_checks(
    analyses: dict, schemas: dict[str, RelationSchema]
) -> dict[int, Callable[[tuple], bool]]:
    """Compiled constant-predicate checkers for every rule condition.

    Keyed by ``id(condition)`` — callers must keep *analyses* alive for
    the mapping's lifetime (strategies hold them for exactly that long).
    Used by the matching-patterns strategy so ``match_condition`` stops
    re-deriving the checker per element.
    """
    checks: dict[int, Callable[[tuple], bool]] = {}
    for analysis in analyses.values():
        for condition in analysis.conditions:
            schema = schemas[condition.class_name]
            try:
                checks[id(condition)] = compile_alpha_test(
                    condition.constant_predicate, schema
                )
            except Exception as error:
                raise CompileError(
                    f"rule {analysis.name!r} condition "
                    f"{condition.index}: {error}"
                ) from error
    return checks


# ---------------------------------------------------------------------------
# Network attachment
# ---------------------------------------------------------------------------


def attach_network_kernels(network) -> dict:
    """Compile alpha tests and two-input kernels onto a built network.

    A node that cannot be lowered raises :class:`CompileError` naming the
    first rule whose join chain uses it.  Returns (and stores as
    ``network.compile_summary``) a summary dict: ``kernels``/``alpha``
    count compiled nodes, ``ns`` the attach-time compilation cost (the
    ``rete.kernel_ns`` metric).
    """
    owner: dict[int, str] = {}
    for rule, chain in network.rule_chains.items():
        for _, amem, node in chain:
            owner.setdefault(id(amem), rule)
            owner.setdefault(id(node), rule)
    summary = {"kernels": 0, "alpha": 0, "ns": 0}
    network.compile_summary = summary
    started = time.perf_counter_ns()
    for amem in network.alpha_memories:
        try:
            amem.test = compile_alpha_test(amem.predicate, amem.schema)
        except Exception as error:
            raise CompileError(
                f"rule {owner[id(amem)]!r} alpha memory {amem.name}: "
                f"{error}"
            ) from error
        summary["alpha"] += 1
    for node in (*network.join_nodes, *network.negative_nodes):
        try:
            plan = plan_join(node.tests, node.bmem.level)
        except Exception as error:
            raise CompileError(
                f"rule {owner[id(node)]!r} node {node.name}: {error}"
            ) from error
        node.attach_kernel(JoinKernel(plan, node.bmem, node.amem, node.counters))
        summary["kernels"] += 1
    summary["ns"] = time.perf_counter_ns() - started
    return summary
