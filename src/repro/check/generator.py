"""Seeded trace generation for the differential harness.

Builds on :mod:`repro.workload`: each trace pairs a generated program with
a random WM op script.  Trace *profiles* rotate with the trace index so a
budget of N traces sweeps plain joins, negation-heavy rule bases,
disjunctive tests, modify-heavy action mixes, interleaved insert/delete
churn, shared-condition pools, mid-run strategy attach/detach and
compaction, and rules whose firing leaves their instantiation in WM
(so refraction is exercised).

Generation is a pure function of ``(seed, index)``: the program comes from
:func:`repro.workload.generate_program` (whose RNG-stream invariant keeps
profiles orthogonal) and the op script from a dedicated
``random.Random(f"{seed}/{index}/ops")`` stream (the op chunk size from
``.../batch``), so any failing trace is reproducible from its seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.check.trace import Trace, TraceOp
from repro.lang.ast import ConstExpr, VarExpr, WriteAction
from repro.lang.format import format_program
from repro.lang.parser import parse_program
from repro.workload.generator import WorkloadSpec, generate_program


@dataclass(frozen=True)
class TraceProfile:
    """One family of traces: workload-spec knobs plus an op mix."""

    name: str
    spec_overrides: tuple[tuple[str, object], ...] = ()
    ops: int = 28
    delete_fraction: float = 0.2
    modify_fraction: float = 0.1
    reattach_fraction: float = 0.0
    #: Chance of a ``compact`` op after each generated op (half of them
    #: with a fold cap).
    compact_fraction: float = 0.0
    #: Give every rule the RHS ``(write <rule> <j>)``, which leaves its
    #: instantiation in WM, so only refraction keeps it from refiring.
    write_only: bool = False

    def spec(self, seed: int) -> WorkloadSpec:
        base = WorkloadSpec(
            classes=3,
            attributes=3,
            rules=6,
            min_conditions=1,
            max_conditions=3,
            domain=4,
            seed=seed,
        )
        return replace(base, **dict(self.spec_overrides))


#: The rotation; ``generate_trace(seed, i)`` uses ``PROFILES[i % len]``.
PROFILES: tuple[TraceProfile, ...] = (
    TraceProfile(name="plain"),
    TraceProfile(
        name="negation",
        spec_overrides=(("negation_probability", 0.45), ("rules", 7)),
    ),
    TraceProfile(
        name="disjunction",
        spec_overrides=(
            ("disjunction_probability", 0.5),
            ("negation_probability", 0.2),
        ),
    ),
    TraceProfile(
        name="modify-heavy",
        spec_overrides=(("modify_action_probability", 0.8),),
        modify_fraction=0.3,
    ),
    TraceProfile(
        name="churn",
        ops=36,
        delete_fraction=0.4,
        spec_overrides=(("negation_probability", 0.25),),
    ),
    TraceProfile(
        name="pool-sharing",
        spec_overrides=(
            ("shared_condition_pool", 4),
            ("negation_probability", 0.25),
            ("rules", 8),
        ),
    ),
    TraceProfile(
        name="reattach",
        reattach_fraction=0.12,
        compact_fraction=0.08,
        spec_overrides=(("negation_probability", 0.25),),
    ),
    TraceProfile(
        name="refraction",
        write_only=True,
        ops=32,
        delete_fraction=0.1,
        spec_overrides=(
            ("negation_probability", 0.1),
            ("max_conditions", 2),
            ("rules", 8),
        ),
    ),
)


def generate_ops(
    profile: TraceProfile,
    rng: random.Random,
    targets: list[tuple[str, tuple[str, ...]]],
    domain: int,
) -> tuple[TraceOp, ...]:
    """The op script: inserts, index-addressed deletes/modifies, reattaches.

    *targets* lists the insertable classes as (name, attributes) pairs;
    values and modify payloads are drawn from ``0..domain-1``.
    """
    ops: list[TraceOp] = []
    for _ in range(profile.ops):
        roll = rng.random()
        if roll < profile.reattach_fraction:
            # Detach and attach as separate ops: the gap between them (and
            # a shrunk trace keeping only one of the pair) are both valid.
            ops.append(TraceOp.detach())
            ops.append(TraceOp.attach())
            continue
        roll = rng.random()
        class_name, attributes = targets[rng.randrange(len(targets))]
        if roll < profile.delete_fraction:
            ops.append(TraceOp.delete(rng.randrange(1 << 16)))
        elif roll < profile.delete_fraction + profile.modify_fraction:
            attribute = attributes[min(1, len(attributes) - 1)]
            ops.append(
                TraceOp.modify(
                    rng.randrange(1 << 16),
                    {attribute: rng.randrange(domain)},
                )
            )
        else:
            values = tuple(
                rng.randrange(domain) for _ in range(len(attributes))
            )
            ops.append(TraceOp.insert(class_name, values))
    return tuple(ops)


#: Default conflict-resolution rotation; ``--resolutions`` widens it.
DEFAULT_RESOLUTIONS = ("lex",)

#: Op chunk sizes a generated trace draws its ``batch`` from.
BATCH_CHOICES = (2, 4, 8, 64)


def generate_trace(
    seed: int,
    index: int,
    program: str | None = None,
    resolutions: tuple[str, ...] = DEFAULT_RESOLUTIONS,
) -> Trace:
    """Trace number *index* of the fuzz run seeded with *seed*.

    With *program* given (the ``repro check FILE`` form), only the op
    script is generated; insert/modify targets come from the program's own
    ``literalize`` schemas rather than the profile's synthetic spec.
    *resolutions* rotates with the index, orthogonally to the profile
    rotation, so a budget of N traces sweeps profile × resolver
    combinations.  The op chunk size and the ``compact`` ops come from
    their own RNG streams, so drawing them leaves the program and the
    other ops unchanged.
    """
    passes, position = divmod(index, len(PROFILES))
    profile = PROFILES[position]
    # Shift the resolver by one per pass over the profiles, so every
    # profile meets every resolver whatever the two lengths are.
    resolution = resolutions[(position + passes) % len(resolutions)]
    spec = profile.spec(seed * 10_007 + index)
    if program is None:
        generated = generate_program(spec).program
        if profile.write_only:
            generated = replace(generated, rules=[
                replace(rule, actions=(WriteAction(
                    (ConstExpr(rule.name), VarExpr("j"))
                ),))
                for rule in generated.rules
            ])
        program = format_program(generated)
        targets = [
            (spec.class_name(i),
             tuple(spec.attribute_name(j) for j in range(spec.attributes)))
            for i in range(spec.classes)
        ]
    else:
        schemas = parse_program(program).schemas
        targets = [
            (schema.name, tuple(schema.attributes))
            for schema in schemas.values()
        ]
        if not targets:
            raise ValueError("program declares no WM classes to fuzz")
    rng = random.Random(f"{seed}/{index}/ops")
    # Compactions come from their own stream, so they only add ops.
    compacts = random.Random(f"{seed}/{index}/compact")
    ops = []
    for op in generate_ops(profile, rng, targets, spec.domain):
        ops.append(op)
        if compacts.random() < profile.compact_fraction:
            ops.append(TraceOp.compact(compacts.choice((None, 2))))
    return Trace(
        name=f"seed{seed}-{index}-{profile.name}",
        seed=seed,
        program=program,
        ops=tuple(ops),
        max_cycles=30,
        resolution=resolution,
        batch=random.Random(f"{seed}/{index}/batch").choice(BATCH_CHOICES),
    )
