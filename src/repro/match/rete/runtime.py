"""Rete network runtime: tokens, memories, join/negative/production nodes.

This follows the classic OPS5/Forgy structure (§3.1 of the paper): tuples
tagged "+"/"−" enter through per-class alpha tests; surviving tuples land in
alpha memories; two-input join nodes pair them with partial matches (tokens)
held in beta memories; tokens reaching a production node put the rule into
the conflict set together with the satisfying elements.

Deletion uses token-tree retraction (each token knows its children), so a
"−" tag undoes exactly what the "+" tag built.  Negative nodes keep
per-token join-result sets, the standard treatment of OPS5's negated
condition elements.

Memories optionally *mirror* their contents into storage-engine tables —
the LEFT/RIGHT relations of the paper's §3.2 DBMS implementation — so space
and I/O accounting flows through the storage counters.  Like relations,
they are probed through indexes: each equality key a join kernel uses
gets a persistent, insertion-ordered hash index on the memory it probes,
so a join probe costs one bucket rather than a scan of the opposing
memory (``docs/ALGORITHMS.md`` §10.2).

Two propagation granularities coexist (§4.2.3's set-orientation applied to
the Rete family):

* tuple-at-a-time — ``try_activate`` / ``right_activate`` /
  ``left_activate_new_token`` process one "+"/"−" token exactly as OPS5
  does; this remains the path for single-delta changes and retraction
  cascades;
* set-at-a-time — the ``*_set`` variants carry whole *token sets* (all
  same-class WM elements of one delta batch, or all tokens one upstream
  group produced) and probe the opposing LEFT/RIGHT memory relation **once
  per (node, batch group)** instead of once per token.  Each probe is
  traced as a ``rete.batch_join`` span; mirrored memories buffer their
  writes during a batch and flush through ``insert_many``/``delete_many``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.engine.conflict import ConflictSet, Instantiation
from repro.instrument import Counters
from repro.lang.analysis import RuleAnalysis
from repro.obs import Observability
from repro.obs.metrics import SIZE_BUCKETS
from repro.obs.tracing import NULL_SPAN
from repro.storage.catalog import Catalog
from repro.storage.schema import RelationSchema
from repro.storage.tuples import StoredTuple

WmeKey = tuple[str, int]


def wme_key(wme: StoredTuple) -> WmeKey:
    """Stable identity of a WM element."""
    return (wme.relation, wme.tid)


@dataclass(frozen=True)
class JoinTest:
    """One inter-element test at a two-input node.

    Compares the candidate element's attribute (at ``own_position``) with an
    attribute of an element earlier in the token, ``levels_up`` levels above
    the candidate (1 = the immediately preceding condition element).
    """

    own_position: int
    op: str
    levels_up: int
    other_position: int

    def key(self) -> tuple:
        return (self.own_position, self.op, self.levels_up, self.other_position)


class Token:
    """A partial match: a chain of WM elements, one per condition element.

    A token's children form an intrusive circular list in creation order:
    ``child`` is the oldest child, ``next``/``prev`` link siblings (the
    oldest child's ``prev`` is the youngest).  Linking and unlinking are
    O(1) with no per-token container — the dummy top token parents every
    first-level token, so a ``list.remove`` there was a scan of them all.
    ``wme_prev``/``wme_next`` thread the same kind of list through the
    tokens registered under one WM element (:class:`ReteRuntime`).
    """

    __slots__ = (
        "parent", "wme", "node", "child", "prev", "next",
        "wme_prev", "wme_next",
    )

    def __init__(
        self, parent: "Token | None", wme: StoredTuple | None, node: object
    ) -> None:
        self.parent = parent
        self.wme = wme
        self.node = node
        self.child: Token | None = None
        head = parent.child if parent is not None else None
        if head is None:
            self.prev = self.next = self
            if parent is not None:
                parent.child = self
        else:
            tail = head.prev
            self.prev = tail
            self.next = head
            tail.next = head.prev = self

    def children(self) -> list["Token"]:
        """Child tokens, oldest first."""
        children: list[Token] = []
        head = child = self.child
        while child is not None:
            children.append(child)
            child = child.next
            if child is head:
                break
        return children

    def unlink(self) -> None:
        """Leave the parent's child list."""
        parent, following = self.parent, self.next
        if following is self:
            parent.child = None
        else:
            following.prev = self.prev
            self.prev.next = following
            if parent.child is self:
                parent.child = following
        self.prev = self.next = None  # no self-cycle left for the GC

    def chain(self) -> list[StoredTuple | None]:
        """WM elements from the first condition element to this level."""
        wmes: list[StoredTuple | None] = []
        token: Token | None = self
        while token is not None and token.parent is not None:
            wmes.append(token.wme)
            token = token.parent
        wmes.reverse()
        return wmes

    def ancestor(self, levels_up: int) -> "Token":
        """The token *levels_up* levels above this one (1 = parent)."""
        token = self
        for _ in range(levels_up):
            token = token.parent
        return token


class MemoryMirror:
    """Mirrors a memory's contents into a storage-engine table (§3.2).

    Handles are the mirrored objects themselves (a :class:`StoredTuple` for
    alpha rows, a :class:`Token` for beta rows), so an add/remove pair for
    one object always cancels correctly even inside a buffered batch.

    During set-at-a-time propagation the owning network brackets changes in
    :meth:`begin_buffer` / :meth:`flush_buffer`: writes are accumulated and
    applied through ``delete_many``/``insert_many`` — one bulk statement per
    LEFT/RIGHT relation per batch, inside one catalog transaction.  An
    object added *and* removed while buffering never reaches storage.
    """

    def __init__(self, catalog: Catalog, name: str, arity: int) -> None:
        attributes = tuple(f"w{i + 1}" for i in range(max(arity, 1)))
        self.table = catalog.create(RelationSchema(name, attributes))
        self._rows: dict[object, int] = {}
        self._buffering = False
        self._pending_adds: dict[object, tuple] = {}
        self._pending_removes: list[int] = []

    def add(self, handle: object, tids: tuple[int | None, ...]) -> None:
        values = tuple(tids) or (None,)
        if self._buffering:
            self._pending_adds[handle] = values
            return
        row = self.table.insert(values)
        self._rows[handle] = row.tid

    def remove(self, handle: object) -> None:
        if self._buffering and self._pending_adds.pop(handle, None) is not None:
            return  # born and retracted inside the batch: annihilates
        row_tid = self._rows.pop(handle, None)
        if row_tid is None:
            return
        if self._buffering:
            self._pending_removes.append(row_tid)
        else:
            self.table.delete(row_tid)

    def begin_buffer(self) -> None:
        """Start accumulating writes for one delta batch."""
        self._buffering = True

    def flush_buffer(self) -> None:
        """Apply the accumulated writes set-at-a-time."""
        self._buffering = False
        if self._pending_removes:
            self.table.delete_many(self._pending_removes)
            self._pending_removes = []
        if self._pending_adds:
            stored = self.table.insert_many(list(self._pending_adds.values()))
            for handle, row in zip(self._pending_adds, stored):
                self._rows[handle] = row.tid
            self._pending_adds = {}


def _unindex(index: dict, key: tuple, row: int) -> None:
    """Drop *row* from its bucket; an emptied bucket leaves the index."""
    bucket = index[key]
    bucket.remove(row)
    if not bucket:
        del index[key]


class AlphaMemory:
    """Stores the WM elements passing one constant-test conjunction.

    Storage is columnar (the RIGHT relation of §3.2 viewed column-wise):
    admitted elements occupy a compact row id indexing a parallel list of
    element references plus one value column per attribute position.  The
    insertion-ordered ``_index`` maps element identity to its row; deleted
    rows join a free list and are reused by later inserts, so columns never
    shrink mid-batch and row ids stay dense.

    Each distinct equality key a compiled join probes this memory on gets
    one persistent hash index (:meth:`index_on`): key values → a bucket
    of row ids in admission order, maintained on every admit and retract.
    A bucket is always the key-filtered, insertion-ordered scan of the
    memory, so an indexed probe yields exactly the pair sequence the scan
    would.  Buckets are plain lists — eight bytes a row; unlinking a row
    costs a walk of its own bucket, the same bound as a probe of it.
    """

    def __init__(
        self,
        name: str,
        class_name: str,
        test: Callable[[tuple], bool] | None,
        counters: Counters,
        mirror: MemoryMirror | None = None,
        arity: int | None = None,
    ) -> None:
        self.name = name
        self.class_name = class_name
        self.test = test
        self.counters = counters
        self.mirror = mirror
        self._index: dict[WmeKey, int] = {}
        self._wme_rows: list[StoredTuple | None] = []
        self._columns: list[list] | None = (
            [[] for _ in range(arity)] if arity is not None else None
        )
        self._free: list[int] = []
        #: Persistent join indexes: key positions → {key → row bucket}.
        self.indexes: dict[tuple[int, ...], dict[tuple, list[int]]] = {}
        self.successors: list[JoinNode | NegativeNode] = []

    def index_on(self, positions: tuple[int, ...]) -> dict[tuple, list[int]]:
        """The persistent index keyed by the values at *positions*.

        Created (over the current contents) on first demand; two nodes
        probing on the same positions share one index.
        """
        index = self.indexes.get(positions)
        if index is None:
            index = self.indexes[positions] = {}
            for row in self._index.values():
                self._index_row(positions, index, row)
        return index

    def _index_row(self, positions: tuple, index: dict, row: int) -> None:
        values = self._wme_rows[row].values
        key = tuple([values[position] for position in positions])
        index.setdefault(key, []).append(row)

    def _admit(self, wme: StoredTuple) -> None:
        if self._columns is None:
            self._columns = [[] for _ in wme.values]
        if self._free:
            row = self._free.pop()
            self._wme_rows[row] = wme
            for column, value in zip(self._columns, wme.values):
                column[row] = value
        else:
            self._wme_rows.append(wme)
            for column, value in zip(self._columns, wme.values):
                column.append(value)
            row = len(self._wme_rows) - 1
        self._index[wme_key(wme)] = row
        for positions, index in self.indexes.items():
            self._index_row(positions, index, row)

    def try_activate(self, wme: StoredTuple) -> bool:
        """Run the constant test; admit and propagate on success."""
        self.counters.node_activations += 1
        self.counters.comparisons += 1
        if not self.test(wme.values):
            return False
        self._admit(wme)
        if self.mirror is not None:
            self.mirror.add(wme, (wme.tid,))
        self.counters.tokens += 1
        # Downstream-first: successors append as beta chains grow top-down,
        # so creation order is topological (upstream before downstream).
        # When this memory is shared by several CEs of one rule (MQO), a
        # deep join's right activation must run before the shallow joins
        # push this wme's own token into its left memory, or each
        # self-join pair is produced twice.
        for successor in reversed(list(self.successors)):
            successor.right_activate(wme)
        return True

    def insert_set(self, wmes: list[StoredTuple]) -> list[StoredTuple]:
        """Run the constant test over a whole token set; admit survivors.

        One node activation covers the set.  Successors are *not* activated
        here — the caller propagates the admitted set once per successor,
        so each opposing memory is probed once per (node, batch group).
        """
        self.counters.node_activations += 1
        admitted: list[StoredTuple] = []
        for wme in wmes:
            self.counters.comparisons += 1
            if not self.test(wme.values):
                continue
            self._admit(wme)
            if self.mirror is not None:
                self.mirror.add(wme, (wme.tid,))
            self.counters.tokens += 1
            admitted.append(wme)
        return admitted

    def retract(self, wme: StoredTuple) -> bool:
        """Remove *wme* if present; returns whether it was stored."""
        row = self._index.pop(wme_key(wme), None)
        if row is None:
            return False
        values = self._wme_rows[row].values
        for positions, index in self.indexes.items():
            key = tuple([values[position] for position in positions])
            _unindex(index, key, row)
        self._wme_rows[row] = None
        for column in self._columns or ():
            column[row] = None
        self._free.append(row)
        if self.mirror is not None:
            self.mirror.remove(wme)
        return True

    def wme_keys(self):
        """Identities of the stored elements, in insertion order."""
        return self._index.keys()

    def wmes(self) -> list[StoredTuple]:
        """The stored elements, in insertion order."""
        rows = self._wme_rows
        return [rows[row] for row in self._index.values()]

    def rows(self):
        """Live row ids, in insertion order (kernel probes)."""
        return self._index.values()

    def column(self, position: int) -> list:
        """The value column for one attribute position."""
        assert self._columns is not None
        return self._columns[position]

    def wme_at(self, row: int) -> StoredTuple | None:
        return self._wme_rows[row]

    def __len__(self) -> int:
        return len(self._index)


class BetaMemory:
    """Stores tokens covering a prefix of a rule's condition elements.

    Storage is columnar (the LEFT relation of §3.2 viewed column-wise): a
    compact row id indexes a parallel list of token references plus one
    *slot column* per covered condition element, holding that level's WM
    element (``None`` under a negated CE).  ``_order`` maps a token to its
    row in insertion order; freed rows are reused, making
    :meth:`remove_token` O(1) instead of the former ``list.remove`` scan.
    A join test ``levels_up`` above a candidate reads slot column
    ``level - levels_up`` directly — no token-chain pointer chase.

    As on :class:`AlphaMemory`, each distinct equality key a compiled
    join probes this memory on — a tuple of ``(slot, position)`` pairs —
    gets one persistent index of row-id buckets in admission order.  A
    token with an empty tested slot (a negated CE upstream) fails every
    join test and is never indexed.
    """

    def __init__(
        self,
        name: str,
        level: int,
        counters: Counters,
        mirror: MemoryMirror | None = None,
    ) -> None:
        self.name = name
        self.level = level  # number of condition elements covered
        self.counters = counters
        self.mirror = mirror
        self._order: dict[Token, int] = {}
        self._token_rows: list[Token | None] = []
        self._slots: list[list[StoredTuple | None]] = [
            [] for _ in range(level)
        ]
        self._free: list[int] = []
        #: Persistent join indexes: ``(slot, position)`` spec → {key →
        #: row bucket}.
        self.indexes: dict[tuple, dict[tuple, list[int]]] = {}
        self.children: list[JoinNode | NegativeNode] = []
        self.dummy_token: Token | None = None

    def index_on(
        self, spec: tuple[tuple[int, int], ...]
    ) -> dict[tuple, list[int]]:
        """The persistent index keyed by ``(slot, position)`` values."""
        index = self.indexes.get(spec)
        if index is None:
            index = self.indexes[spec] = {}
            for row in self._order.values():
                self._index_row(spec, index, row)
        return index

    def _index_row(self, spec: tuple, index: dict, row: int) -> None:
        key = self.key_at(row, spec)
        if key is not None:
            index.setdefault(key, []).append(row)

    def key_at(self, row: int, spec: tuple) -> tuple | None:
        """The *spec* key of the token at *row* (``None``: empty slot)."""
        key = []
        slots = self._slots
        for slot, position in spec:
            wme = slots[slot][row]
            if wme is None:
                return None
            key.append(wme.values[position])
        return tuple(key)

    def _admit(self, token: Token, chain: list[StoredTuple | None]) -> None:
        if self._free:
            row = self._free.pop()
            self._token_rows[row] = token
            for slot, wme in zip(self._slots, chain):
                slot[row] = wme
        else:
            self._token_rows.append(token)
            for slot, wme in zip(self._slots, chain):
                slot.append(wme)
            row = len(self._token_rows) - 1
        self._order[token] = row
        for spec, index in self.indexes.items():
            self._index_row(spec, index, row)

    def make_dummy(self) -> Token:
        """Install the dummy top token (for the network root)."""
        self.dummy_token = Token(None, None, self)
        self._admit(self.dummy_token, self.dummy_token.chain())
        return self.dummy_token

    def left_activate(self, runtime: "ReteRuntime", parent: Token,
                      wme: StoredTuple | None) -> None:
        self.counters.node_activations += 1
        token = Token(parent, wme, self)
        chain = token.chain()
        self._admit(token, chain)
        self.counters.tokens += 1
        if wme is not None:
            runtime.register_token(wme, token)
        if self.mirror is not None:
            tids = tuple(w.tid if w is not None else None for w in chain)
            self.mirror.add(token, tids)
        for child in list(self.children):
            child.left_activate_new_token(runtime, token)

    def left_activate_set(
        self,
        runtime: "ReteRuntime",
        pairs: list[tuple[Token, StoredTuple | None]],
        group: str,
    ) -> None:
        """Set counterpart of :meth:`left_activate`.

        Admits one token per ``(parent, wme)`` pair, then activates each
        child exactly once with the whole new-token set, preserving the
        one-probe-per-(node, group) invariant downstream.
        """
        self.counters.node_activations += 1
        tokens: list[Token] = []
        for parent, wme in pairs:
            token = Token(parent, wme, self)
            chain = token.chain()
            self._admit(token, chain)
            self.counters.tokens += 1
            if wme is not None:
                runtime.register_token(wme, token)
            if self.mirror is not None:
                tids = tuple(w.tid if w is not None else None for w in chain)
                self.mirror.add(token, tids)
            tokens.append(token)
        for child in list(self.children):
            child.left_activate_token_set(runtime, tokens, group)

    def remove_token(self, token: Token) -> None:
        row = self._order.pop(token)
        for spec, index in self.indexes.items():
            key = self.key_at(row, spec)
            if key is not None:
                _unindex(index, key, row)
        self._token_rows[row] = None
        for slot in self._slots:
            slot[row] = None
        self._free.append(row)
        if self.mirror is not None:
            self.mirror.remove(token)
        for child in self.children:
            child.forget_token(token)

    def tokens(self) -> list[Token]:
        """The stored tokens, in insertion order."""
        return list(self._order)

    def rows(self):
        """Live row ids, in insertion order (kernel probes)."""
        return self._order.values()

    def token_at(self, row: int) -> Token | None:
        return self._token_rows[row]

    def row_of(self, token: Token) -> int:
        return self._order[token]

    def slot_column(self, index: int) -> list[StoredTuple | None]:
        """The WM-element column for condition-element level *index*."""
        return self._slots[index]

    def __len__(self) -> int:
        return len(self._order)


def _probe_span(
    runtime: "ReteRuntime",
    node: "_TwoInputNode",
    input_side: str,
    probed: str,
    group: str,
    size: int,
):
    """Open the ``rete.batch_join`` span for one opposing-memory probe.

    Counts the probe (``rete.join_probes``) and the incoming token-set size
    (``rete.tokenset_size``), and tags the span with the kernel's plan
    kind; returns :data:`NULL_SPAN` when
    unobserved so the disabled path stays a single predicate check.
    """
    obs = runtime.obs
    if obs is None or not obs.enabled:
        return NULL_SPAN
    metrics = obs.metrics
    metrics.counter("rete.join_probes").inc()
    metrics.histogram("rete.tokenset_size", SIZE_BUCKETS).observe(size)
    span = obs.span(
        "rete.batch_join",
        node=node.name,
        input=input_side,
        probed=probed,
        seq=runtime.batch_seq,
        group=group,
        size=size,
    )
    span.set("kernel", node.kernel.label)
    return span


def _record_pairs(runtime: "ReteRuntime", count: int) -> None:
    """Record how many join pairs one probe produced."""
    obs = runtime.obs
    if obs is not None and obs.enabled:
        obs.metrics.histogram("rete.join_pairs", SIZE_BUCKETS).observe(count)


class _TwoInputNode:
    """Shared state of join and negative nodes: LEFT beta, RIGHT alpha.

    Every activation reaches the opposing memory through two primitives —
    ``lefts_for`` (LEFT tokens joining one element) and ``rights_for``
    (RIGHT elements joining one token) — which return partners in the
    opposing memory's insertion order.  Both are bound, on the node, by
    :meth:`attach_kernel` to the node's compiled
    :class:`repro.match.compile.JoinKernel`: one bucket lookup in the
    memory's persistent index plus in-bucket residual tests.
    """

    def __init__(
        self,
        name: str,
        bmem: BetaMemory,
        amem: AlphaMemory,
        tests: tuple[JoinTest, ...],
        counters: Counters,
    ) -> None:
        self.name = name
        self.bmem = bmem
        self.amem = amem
        self.tests = tests
        self.counters = counters
        self.children: list[BetaMemory | NegativeNode | ProductionNode] = []
        bmem.children.append(self)
        amem.successors.append(self)
        self.runtime: ReteRuntime | None = None
        #: Join kernel + plan, set through :meth:`attach_kernel` when the
        #: network is built (``repro.match.compile``).
        self.kernel = None
        self.plan = None
        #: Lifetime opposing-memory probes / largest token set seen — plain
        #: ints read by :meth:`ReteNetwork.describe` (per-node hotspots).
        self.probes = 0
        self.max_group = 0

    def attach_kernel(self, kernel) -> None:
        """Probe through *kernel* from now on (its plan is ``kernel.plan``)."""
        self.kernel = kernel
        self.plan = kernel.plan
        self.lefts_for = kernel.lefts_for
        self.rights_for = kernel.rights_for

    def _activated(self, group_size: int = 1) -> None:
        self.counters.node_activations += 1
        self.probes += 1
        if group_size > self.max_group:
            self.max_group = group_size


class JoinNode(_TwoInputNode):
    """Two-input node joining a beta memory (LEFT) and alpha memory (RIGHT)."""

    def left_activate_new_token(self, runtime: "ReteRuntime", token: Token) -> None:
        self._activated()
        for wme in self.rights_for(token):
            for child in self.children:
                child.left_activate(runtime, token, wme)

    def right_activate(self, wme: StoredTuple) -> None:
        self._activated()
        runtime = self.runtime
        for token in self.lefts_for(wme):
            for child in self.children:
                child.left_activate(runtime, token, wme)

    def left_activate_token_set(
        self, runtime: "ReteRuntime", tokens: list[Token], group: str
    ) -> None:
        """A LEFT token set arrives: probe the RIGHT memory once for all."""
        self._activated(len(tokens))
        with _probe_span(
            runtime, self, "left", "RIGHT", group, len(tokens)
        ) as span:
            partners = [self.rights_for(token) for token in tokens]
            pairs = [
                (token, wme)
                for token, wmes in zip(tokens, partners)
                for wme in wmes
            ]
            span.set("pairs", len(pairs))
        self._propagate(runtime, pairs, group)

    def right_activate_set(self, wmes: list[StoredTuple], group: str) -> None:
        """A RIGHT token set arrives: probe the LEFT memory once for all."""
        self._activated(len(wmes))
        runtime = self.runtime
        with _probe_span(
            runtime, self, "right", "LEFT", group, len(wmes)
        ) as span:
            partners = [self.lefts_for(wme) for wme in wmes]
            pairs = [
                (token, wme)
                for wme, tokens in zip(wmes, partners)
                for token in tokens
            ]
            span.set("pairs", len(pairs))
        self._propagate(runtime, pairs, group)

    def _propagate(self, runtime: "ReteRuntime", pairs: list, group: str) -> None:
        _record_pairs(runtime, len(pairs))
        if pairs:
            for child in self.children:
                child.left_activate_set(runtime, pairs, group)

    def forget_token(self, token: Token) -> None:
        """A LEFT token disappeared; plain joins keep no per-token state."""


class NegativeNode(_TwoInputNode):
    """Two-input node for a negated condition element.

    Sits in a join node's position: LEFT input is a beta memory, RIGHT an
    alpha memory.  A LEFT token propagates (with a ``None`` element slot)
    exactly while it has no join partner on the RIGHT; ``results`` holds
    each LEFT token's current partners (its *witnesses*).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.results: dict[Token, set[WmeKey]] = {}

    def _set_witnesses(
        self, runtime: "ReteRuntime", token: Token, witnesses: list[StoredTuple]
    ) -> bool:
        """Record a new LEFT token's witnesses; True when it has none."""
        matches = {wme_key(wme) for wme in witnesses}
        self.results[token] = matches
        for key in matches:
            runtime.register_negative(key, self, token)
        return not matches

    def _add_witness(self, runtime: "ReteRuntime", wme: StoredTuple) -> list[Token]:
        """A new RIGHT element: add it to every joining token's witnesses.

        Returns the tokens it newly blocked, in LEFT-memory order; the
        caller retracts their downstream propagation afterwards (which
        depends only on the token, not on which witness blocked it).
        """
        key = wme_key(wme)
        blocked: list[Token] = []
        for token in self.lefts_for(wme):
            # The dummy top token is stored in ``top`` but never
            # left-activates a node, so it has no witness set.
            matches = self.results.get(token)
            if matches is None:
                continue
            if not matches:
                blocked.append(token)
            matches.add(key)
            runtime.register_negative(key, self, token)
        return blocked

    def left_activate_new_token(self, runtime: "ReteRuntime", token: Token) -> None:
        self._activated()
        witnesses = self.rights_for(token)
        if self._set_witnesses(runtime, token, witnesses):
            for child in self.children:
                child.left_activate(runtime, token, None)

    def right_activate(self, wme: StoredTuple) -> None:
        self._activated()
        runtime = self.runtime
        for token in self._add_witness(runtime, wme):
            self._retract_propagation(runtime, token)

    def left_activate_token_set(
        self, runtime: "ReteRuntime", tokens: list[Token], group: str
    ) -> None:
        """A LEFT token set: one RIGHT probe computes every witness set."""
        self._activated(len(tokens))
        with _probe_span(
            runtime, self, "left", "RIGHT", group, len(tokens)
        ) as span:
            partners = [self.rights_for(token) for token in tokens]
            unblocked: list[tuple[Token, StoredTuple | None]] = [
                (token, None)
                for token, witnesses in zip(tokens, partners)
                if self._set_witnesses(runtime, token, witnesses)
            ]
            span.set("pairs", len(unblocked))
        _record_pairs(runtime, len(unblocked))
        if unblocked:
            for child in self.children:
                child.left_activate_set(runtime, unblocked, group)

    def right_activate_set(self, wmes: list[StoredTuple], group: str) -> None:
        """A RIGHT token set: one LEFT probe updates every witness set.

        Tokens whose witness set became non-empty have their downstream
        propagation retracted after the probe.
        """
        self._activated(len(wmes))
        runtime = self.runtime
        newly_blocked: list[Token] = []
        with _probe_span(
            runtime, self, "right", "LEFT", group, len(wmes)
        ) as span:
            for wme in wmes:
                newly_blocked.extend(self._add_witness(runtime, wme))
            span.set("pairs", len(newly_blocked))
        for token in newly_blocked:
            self._retract_propagation(runtime, token)

    def wme_unblocked(self, runtime: "ReteRuntime", key: WmeKey, token: Token) -> None:
        """A RIGHT witness vanished; re-propagate when none remain."""
        matches = self.results.get(token)
        if matches is None:
            return
        matches.discard(key)
        if not matches:
            for child in self.children:
                child.left_activate(runtime, token, None)

    def flush_unblocked(
        self,
        runtime: "ReteRuntime",
        entries: list[tuple[WmeKey, Token]],
        group: str,
    ) -> None:
        """Deferred batch unblocks: re-propagate tokens with no witnesses.

        During a batch's delete phase the runtime records vanished
        witnesses instead of re-propagating immediately; once every "−"
        token has been processed, the survivors are propagated as one set.
        A token retracted later in the same delete phase has left
        ``results`` by now and is skipped — it no longer exists.
        """
        self.counters.node_activations += 1
        pairs: list[tuple[Token, StoredTuple | None]] = []
        seen: set[int] = set()
        for key, token in entries:
            matches = self.results.get(token)
            if matches is None:
                continue
            matches.discard(key)
            if not matches and id(token) not in seen:
                seen.add(id(token))
                pairs.append((token, None))
        if pairs:
            for child in self.children:
                child.left_activate_set(runtime, pairs, group)

    def _retract_propagation(self, runtime: "ReteRuntime", token: Token) -> None:
        """Remove this node's downstream tokens built on *token*."""
        downstream = self.children
        mine = [
            child
            for child in token.children()
            if child.wme is None and child.node in downstream
        ]
        for child in mine:
            runtime.delete_token(child)

    def forget_token(self, token: Token) -> None:
        """LEFT token retracted: drop its join-result bookkeeping."""
        self.results.pop(token, None)

    def stored_results(self) -> int:
        """Number of (token, witness) pairs held (space accounting)."""
        return sum(len(matches) for matches in self.results.values())


class ProductionNode:
    """Terminal node: reports instantiations to the conflict set."""

    def __init__(
        self,
        analysis: RuleAnalysis,
        conflict_set: ConflictSet,
        counters: Counters,
        schemas: dict[str, RelationSchema],
    ) -> None:
        self.analysis = analysis
        self.conflict_set = conflict_set
        self.counters = counters
        self.schemas = schemas
        #: Live instantiation tokens (insertion-ordered set, O(1) removal).
        self.items: dict[Token, None] = {}

    def left_activate(self, runtime: "ReteRuntime", parent: Token,
                      wme: StoredTuple | None) -> None:
        self.counters.node_activations += 1
        token = Token(parent, wme, self)
        self.items[token] = None
        if wme is not None:
            runtime.register_token(wme, token)
        self.conflict_set.add(self._instantiation(token))

    def left_activate_set(
        self,
        runtime: "ReteRuntime",
        pairs: list[tuple[Token, StoredTuple | None]],
        group: str,
    ) -> None:
        """Set counterpart of :meth:`left_activate` (one activation)."""
        self.counters.node_activations += 1
        for parent, wme in pairs:
            token = Token(parent, wme, self)
            self.items[token] = None
            if wme is not None:
                runtime.register_token(wme, token)
            self.conflict_set.add(self._instantiation(token))

    def token_deleted(self, token: Token) -> None:
        del self.items[token]
        self.conflict_set.remove(self._instantiation(token))

    def _instantiation(self, token: Token) -> Instantiation:
        wmes = tuple(token.chain())
        bindings: dict[str, object] = {}
        for condition, wme in zip(self.analysis.conditions, wmes):
            if wme is None:
                continue
            schema = self.schemas[condition.class_name]
            for attribute, variable in condition.equalities:
                if variable not in bindings:
                    bindings[variable] = wme.values[schema.position(attribute)]
        return Instantiation(
            rule_name=self.analysis.name,
            wmes=wmes,
            bindings=tuple(sorted(bindings.items())),
            salience=self.analysis.rule.salience,
        )


class ReteRuntime:
    """Per-network mutable state: WME registries and retraction machinery."""

    def __init__(self, counters: Counters) -> None:
        self.counters = counters
        #: The oldest token registered under each element; the rest
        #: follow through ``Token.wme_next`` in registration order (a
        #: circular list, so registering and unlinking are O(1)).
        self.wme_tokens: dict[WmeKey, Token] = {}
        self.wme_alpha: dict[WmeKey, list[AlphaMemory]] = {}
        self.wme_negatives: dict[WmeKey, list[tuple[NegativeNode, Token]]] = {}
        #: Observability used by the batched propagation path (set by the
        #: owning strategy; ``None`` keeps every probe unobserved).
        self.obs: Observability | None = None
        #: Monotone id of the delta batch currently propagating; stamped on
        #: every ``rete.batch_join`` span so probes can be grouped per batch.
        self.batch_seq = 0
        #: While a batch's delete phase runs, vanished negative-node
        #: witnesses are parked here instead of re-propagating one at a
        #: time; the network flushes them as token sets afterwards.
        self.pending_unblocks: (
            dict[NegativeNode, list[tuple[WmeKey, Token]]] | None
        ) = None

    def register_token(self, wme: StoredTuple, token: Token) -> None:
        head = self.wme_tokens.setdefault(wme_key(wme), token)
        tail = token if head is token else head.wme_prev
        token.wme_prev = tail
        token.wme_next = head
        tail.wme_next = head.wme_prev = token

    def register_alpha(self, wme: StoredTuple, amem: AlphaMemory) -> None:
        self.wme_alpha.setdefault(wme_key(wme), []).append(amem)

    def register_negative(
        self, key: WmeKey, node: NegativeNode, token: Token
    ) -> None:
        self.wme_negatives.setdefault(key, []).append((node, token))

    def remove_wme(self, wme: StoredTuple) -> None:
        """Process a "−" token: full retraction of everything built on it."""
        key = wme_key(wme)
        for amem in self.wme_alpha.pop(key, []):
            amem.retract(wme)
        # Always take the live head: deleting a token also deletes its
        # descendants, which may themselves be registered under this wme
        # (self-joins put one element at several chain levels).
        while key in self.wme_tokens:
            self.delete_token(self.wme_tokens[key])
        for node, token in self.wme_negatives.pop(key, []):
            if self.pending_unblocks is not None:
                self.pending_unblocks.setdefault(node, []).append((key, token))
            else:
                node.wme_unblocked(self, key, token)

    def delete_token(self, token: Token) -> None:
        """Delete *token* and every descendant (retraction)."""
        while token.child is not None:
            self.delete_token(token.child)
        node = token.node
        if isinstance(node, ProductionNode):
            node.token_deleted(token)
        elif isinstance(node, BetaMemory):
            node.remove_token(token)
        if token.parent is not None:
            token.unlink()
        if token.wme is not None:
            key = wme_key(token.wme)
            following = token.wme_next
            if following is token:
                del self.wme_tokens[key]
            else:
                following.wme_prev = token.wme_prev
                token.wme_prev.wme_next = following
                if self.wme_tokens[key] is token:
                    self.wme_tokens[key] = following
            token.wme_prev = token.wme_next = None
