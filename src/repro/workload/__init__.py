"""Workload generation: the paper's example programs + synthetic families."""

from repro.workload.generator import (
    GeneratedWorkload,
    WorkloadSpec,
    generate_insert_stream,
    generate_program,
    generate_workload,
    mixed_stream,
)
from repro.workload.k8s import (
    K8S_PROGRAM,
    as_requests,
    k8s_events,
    k8s_setup,
)
from repro.workload.programs import (
    EXAMPLE2_SOURCE,
    EXAMPLE3_SOURCE,
    EXAMPLE4_SOURCE,
    EXAMPLE5_INSERTS,
    INVENTORY_PROGRAM,
    chain_program,
    contended_rules_program,
    counter_program,
    independent_rules_program,
    inventory_events,
    monkey_bananas_program,
)

__all__ = [
    "EXAMPLE2_SOURCE",
    "EXAMPLE3_SOURCE",
    "EXAMPLE4_SOURCE",
    "EXAMPLE5_INSERTS",
    "GeneratedWorkload",
    "INVENTORY_PROGRAM",
    "K8S_PROGRAM",
    "WorkloadSpec",
    "as_requests",
    "chain_program",
    "contended_rules_program",
    "counter_program",
    "generate_insert_stream",
    "generate_program",
    "generate_workload",
    "independent_rules_program",
    "inventory_events",
    "k8s_events",
    "k8s_setup",
    "mixed_stream",
    "monkey_bananas_program",
]
