"""repro — production rule systems in a DBMS environment.

A full reproduction of T. Sellis, C.-C. Lin & L. Raschid, *"Implementing
Large Production Systems in a DBMS Environment: Concepts and Algorithms"*
(SIGMOD 1988): OPS5-style rules over relational working memory, four
interchangeable match-indexing strategies (Rete, simplified query
re-evaluation, the paper's matching-pattern scheme, and POSTGRES-style
tuple markers), the recognize-act engine, and transactional concurrent
execution of conflict sets.

Quick start::

    from repro import ProductionSystem

    system = ProductionSystem('''
        (literalize Emp name salary)
        (p raise-low
            (Emp ^name <N> ^salary {<S> < 100})
            -->
            (modify 1 ^salary (compute <S> + 10)))
    ''', strategy="patterns")
    system.insert("Emp", {"name": "Mike", "salary": 70})
    system.run()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.engine import (
    ConflictSet,
    Instantiation,
    ProductionSystem,
    RunResult,
    TraceEvent,
    WorkingMemory,
)
from repro.errors import ReproError
from repro.instrument import Counters, SpaceReport
from repro.lang import (
    Program,
    Rule,
    RuleBuilder,
    analyze_program,
    format_program,
    format_rule,
    parse_program,
    parse_rule,
    var,
)
from repro.match import (
    BasicLockingStrategy,
    DbmsReteStrategy,
    MatchingPatternsStrategy,
    MatchStrategy,
    ReteStrategy,
    STRATEGIES,
    SharedReteStrategy,
    SimplifiedStrategy,
)
from repro.obs import (
    JsonlFileSink,
    MetricsRegistry,
    Observability,
    PhaseStatsSink,
    RingBufferSink,
    RunManifest,
)
from repro.rindex import ConditionIndex, RTree
from repro.storage import Catalog, RelationSchema, StoredTuple
from repro.txn import (
    POLICIES,
    ConcurrentScheduler,
    count_equivalent_serial_orders,
    equivalent_serial_order,
    is_serializable,
)
from repro.workload import WorkloadSpec, generate_workload

__version__ = "1.0.0"

__all__ = [
    "BasicLockingStrategy",
    "Catalog",
    "ConcurrentScheduler",
    "ConditionIndex",
    "ConflictSet",
    "Counters",
    "DbmsReteStrategy",
    "Instantiation",
    "JsonlFileSink",
    "MatchStrategy",
    "MatchingPatternsStrategy",
    "MetricsRegistry",
    "Observability",
    "POLICIES",
    "PhaseStatsSink",
    "ProductionSystem",
    "Program",
    "RTree",
    "RelationSchema",
    "ReproError",
    "ReteStrategy",
    "RingBufferSink",
    "RunManifest",
    "Rule",
    "RuleBuilder",
    "RunResult",
    "STRATEGIES",
    "SharedReteStrategy",
    "SimplifiedStrategy",
    "SpaceReport",
    "StoredTuple",
    "TraceEvent",
    "WorkingMemory",
    "WorkloadSpec",
    "analyze_program",
    "count_equivalent_serial_orders",
    "equivalent_serial_order",
    "format_program",
    "format_rule",
    "generate_workload",
    "is_serializable",
    "parse_program",
    "parse_rule",
    "var",
]
