"""Canned programs: the paper's own examples plus parametric families.

The 1988 OPS5 benchmark suites are not available, so the reproduction's
fixed points are the programs printed in the paper (Examples 2–4) plus
parametric families that exercise the structures the paper reasons about:
the Figure-1 chain ``C1 ∧ … ∧ Cn``, counters for the recognize-act cycle,
and independent-rule batches for the §5 concurrency experiments.
"""

from __future__ import annotations

import random

#: Example 2 (§3.1): algebraic simplification.  The paper shows PlusOX in
#: full and names the sibling TimesOX; §4.1.1's COND tables list both.
EXAMPLE2_SOURCE = """
(literalize Goal Type Object)
(literalize Expression Name Arg1 Op Arg2)

(p PlusOX
    (Goal ^Type Simplify ^Object <N>)
    (Expression ^Name <N> ^Arg1 0 ^Op + ^Arg2 <X>)
    -->
    (modify 2 ^Op nil ^Arg1 nil))

(p TimesOX
    (Goal ^Type Simplify ^Object <N>)
    (Expression ^Name <N> ^Arg1 0 ^Op '*' ^Arg2 <X>)
    -->
    (modify 2 ^Op nil ^Arg2 nil))
"""

#: Example 3 (§3.2): employee deletion rules.
EXAMPLE3_SOURCE = """
(literalize Emp name salary dno manager)
(literalize Dept dno dname floor manager)

(p R1
    (Emp ^name Mike ^salary <S> ^manager <M>)
    (Emp ^name <M> ^salary {<S1> < <S>})
    -->
    (remove 1))

(p R2
    (Emp ^dno <D>)
    (Dept ^dno <D> ^dname Toy ^floor 1)
    -->
    (remove 1))
"""

#: Example 4 (§4.2.1): the three-way cyclic join Rule-1 over A, B, C.
EXAMPLE4_SOURCE = """
(literalize A A1 A2 A3)
(literalize B B1 B2 B3)
(literalize C C1 C2 C3)

(p Rule-1
    (A ^A1 <x> ^A2 a ^A3 <z>)
    (B ^B1 <x> ^B2 <y> ^B3 b)
    (C ^C1 c ^C2 <y> ^C3 <z>)
    -->
    (halt))
"""

#: Example 5 (§4.2.2): the insert sequence driven through Example 4's rule.
EXAMPLE5_INSERTS = [
    ("B", (4, 5, "b")),
    ("C", ("c", 7, 8)),
    ("A", (4, "a", 8)),
    ("B", (4, 7, "b")),
]


def chain_program(depth: int, shared_attr: bool = True) -> str:
    """Figure 1's ``C1 ∧ C2 ∧ … ∧ Cn`` as one rule over *depth* classes.

    When *shared_attr* is true every adjacent pair joins on a common
    variable, matching the figure; otherwise the conditions are
    independent selections.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    lines = []
    conditions = []
    for i in range(depth):
        lines.append(f"(literalize C{i} v tag)")
        if shared_attr:
            conditions.append(f"(C{i} ^v <x>)")
        else:
            conditions.append(f"(C{i} ^tag live)")
    lines.append(f"(p chain {' '.join(conditions)} --> (remove 1))")
    return "\n".join(lines)


def counter_program(limit: int) -> str:
    """A counter that runs the recognize-act cycle *limit* times."""
    return f"""
    (literalize Counter value limit)
    (p count-up
        (Counter ^value <V> ^limit {{<L> > <V>}})
        -->
        (modify 1 ^value (compute <V> + 1)))
    (p done
        (Counter ^value {limit} ^limit {limit})
        -->
        (halt))
    """


def independent_rules_program(count: int) -> str:
    """*count* rules over disjoint classes — fully parallelizable (§5)."""
    parts = []
    for i in range(count):
        parts.append(f"(literalize T{i} x)")
        parts.append(f"(literalize L{i} x)")
        parts.append(
            f"(p r{i} (T{i} ^x <V>) --> (remove 1) (make L{i} ^x <V>))"
        )
    return "\n".join(parts)


def contended_rules_program(count: int) -> str:
    """*count* rules all updating one shared relation — the serial worst
    case of §5.2 ("in the worst case, this will reduce to the time taken
    for a serial execution")."""
    parts = ["(literalize Shared x)", "(literalize Log x)"]
    for i in range(count):
        parts.append(f"(literalize T{i} x)")
        parts.append(
            f"(p r{i} (T{i} ^x <V>) (Shared ^x <S>) --> "
            f"(remove 1) (modify 2 ^x (compute <S> + 1)))"
        )
    return "\n".join(parts)


def monkey_bananas_program() -> str:
    """A compact classic planning program (monkey-and-bananas style).

    Exercises multi-step chaining: the monkey moves to the chair, pushes it
    under the bananas, climbs, and grabs.
    """
    return """
    (literalize Monkey at on holding)
    (literalize Object name at)
    (literalize Goal status)

    (p go-to-chair
        (Goal ^status active)
        (Monkey ^at <M> ^on floor)
        (Object ^name chair ^at {<C> <> <M>})
        -->
        (modify 2 ^at <C>))

    (p push-chair
        (Goal ^status active)
        (Object ^name chair ^at <C>)
        (Object ^name bananas ^at {<B> <> <C>})
        (Monkey ^at <C> ^on floor)
        -->
        (modify 2 ^at <B>)
        (modify 4 ^at <B>))

    (p climb-chair
        (Goal ^status active)
        (Object ^name chair ^at <B>)
        (Object ^name bananas ^at <B>)
        (Monkey ^at <B> ^on floor)
        -->
        (modify 4 ^on chair))

    (p grab-bananas
        (Goal ^status active)
        (Object ^name bananas ^at <B>)
        (Monkey ^at <B> ^on chair ^holding nil)
        -->
        (modify 3 ^holding bananas)
        (modify 1 ^status satisfied)
        (halt))
    """


#: A warehouse whose join keys stay selective as it grows: more parts and
#: sites, not more rows per part.  ``route`` is a 4-way equality join with
#: a ``<=`` residual; ``imbalance`` a stock x stock self-join with ``<>``
#: and ``<`` residuals behind a negated CE — the shapes a keyed probe
#: answers from one bucket and a scan answers from the whole memory.
INVENTORY_PROGRAM = """
(literalize site name region)
(literalize part id kind)
(literalize stock part site qty)
(literalize hold part)
(literalize order id part region qty)

(p route
    (site ^name <s> ^region <r>)
    (stock ^site <s> ^part <p> ^qty <q>)
    (part ^id <p> ^kind <k>)
    (order ^id <o> ^part <p> ^region <r> ^qty <= <q>)
    -->
    (remove 4))

(p imbalance
    (stock ^part <p> ^site <a> ^qty <q>)
    (stock ^part <p> ^site {<b> <> <a>} ^qty < <q>)
    -(hold ^part <p>)
    -->
    (remove 2))
"""


def inventory_events(
    size: int, churn: int, seed: int = 0
) -> list[tuple[str, object]]:
    """Bench-driver events for :data:`INVENTORY_PROGRAM`.

    The first events load an inventory of about *size* tuples (sites,
    parts and holds scale with it, about seven stock rows per part); the
    next *churn* events mix stock inserts and deletes with incoming
    orders, keeping the size roughly constant.
    """
    rng = random.Random(f"inventory/{seed}")
    sites = max(4, size // 40)
    parts = max(4, size // 8)

    def stock() -> tuple[str, object]:
        return ("insert", ("stock", (
            rng.randrange(parts), rng.randrange(sites), rng.randrange(1, 50)
        )))

    events: list[tuple[str, object]] = [
        ("insert", ("site", (name, name % 4))) for name in range(sites)
    ]
    events += [("insert", ("part", (ident, ident % 10))) for ident in range(parts)]
    events += [
        ("insert", ("hold", (rng.randrange(parts),)))
        for _ in range(max(1, size // 60))
    ]
    fixed = len(events)
    events += [stock() for _ in range(max(0, size - fixed))]
    resident = len(events)
    for step in range(churn):
        kind = step % 3
        if kind == 0:
            events.append(stock())
        elif kind == 1:
            # Past the fixed prefix the live list holds stock rows (and,
            # towards its end, a few orders): retire one of them.
            events.append(("delete", fixed + rng.randrange(resident - fixed)))
        else:
            events.append(("insert", ("order", (
                step, rng.randrange(parts), rng.randrange(4), rng.randrange(1, 30)
            ))))
    return events
