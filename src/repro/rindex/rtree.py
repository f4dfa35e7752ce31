"""An N-dimensional R-tree with quadratic split (Guttman 1984).

The paper suggests R-trees (and their R+-tree variant) as "fast matching
devices on COND relations" (§4.2.3, [GUTT84], [SELL87], [LIN87]).  This is
a from-scratch implementation: insert with least-enlargement descent,
quadratic node split, delete with re-insertion of orphans, point and box
queries.  It is generic over payloads; :mod:`repro.rindex.condition_index`
instantiates it with condition ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import IndexError_
from repro.rindex.interval import (
    Box,
    Key,
    box_area,
    box_contains_point,
    box_union,
    boxes_intersect,
    enlargement,
)


@dataclass
class _Entry:
    box: Box
    child: "_Node | None" = None
    payload: Any = None


@dataclass
class _Node:
    leaf: bool
    entries: list[_Entry] = field(default_factory=list)
    parent: "_Node | None" = None

    def box(self) -> Box:
        covering = self.entries[0].box
        for entry in self.entries[1:]:
            covering = box_union(covering, entry.box)
        return covering


class RTree:
    """R-tree over *dimensions*-dimensional boxes."""

    def __init__(
        self, dimensions: int, max_entries: int = 8, min_entries: int | None = None
    ) -> None:
        if dimensions < 1:
            raise IndexError_("R-tree needs >= 1 dimension")
        if max_entries < 4:
            raise IndexError_("max_entries must be >= 4")
        self.dimensions = dimensions
        self.max_entries = max_entries
        self.min_entries = min_entries or max(2, max_entries // 2)
        self._root = _Node(leaf=True)
        self._payload_entries: dict[Any, _Entry] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a leaf-only tree)."""
        height = 1
        node = self._root
        while not node.leaf:
            node = node.entries[0].child  # type: ignore[assignment]
            height += 1
        return height

    # -- insertion -----------------------------------------------------------

    def insert(self, box: Box, payload: Any) -> None:
        """Insert *payload* with bounding *box*; payloads must be unique."""
        if len(box) != self.dimensions:
            raise IndexError_(
                f"box has {len(box)} dimensions, tree has {self.dimensions}"
            )
        if payload in self._payload_entries:
            raise IndexError_(f"payload {payload!r} already indexed")
        entry = _Entry(box=box, payload=payload)
        self._payload_entries[payload] = entry
        self._insert_entry(entry, into_leaves=True)
        self._size += 1

    def _insert_entry(self, entry: _Entry, into_leaves: bool) -> None:
        node = self._choose_node(entry.box, into_leaves)
        node.entries.append(entry)
        if entry.child is not None:
            entry.child.parent = node
        if len(node.entries) > self.max_entries:
            self._split(node)

    def _choose_node(self, box: Box, into_leaves: bool) -> _Node:
        node = self._root
        while not node.leaf:
            if not into_leaves and all(
                e.child is not None and e.child.leaf for e in node.entries
            ):
                break
            best = min(
                node.entries,
                key=lambda e: (enlargement(e.box, box), box_area(e.box)),
            )
            best.box = box_union(best.box, box)
            node = best.child  # type: ignore[assignment]
        return node

    def _split(self, node: _Node) -> None:
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a, group_b = [seed_a], [seed_b]
        box_a, box_b = seed_a.box, seed_b.box
        rest = [e for e in entries if e is not seed_a and e is not seed_b]
        while rest:
            if len(group_a) + len(rest) == self.min_entries:
                group_a.extend(rest)
                box_a = box_union(box_a, _cover(rest))
                break
            if len(group_b) + len(rest) == self.min_entries:
                group_b.extend(rest)
                box_b = box_union(box_b, _cover(rest))
                break
            entry = max(
                rest,
                key=lambda e: abs(
                    enlargement(box_a, e.box) - enlargement(box_b, e.box)
                ),
            )
            rest.remove(entry)
            if enlargement(box_a, entry.box) <= enlargement(box_b, entry.box):
                group_a.append(entry)
                box_a = box_union(box_a, entry.box)
            else:
                group_b.append(entry)
                box_b = box_union(box_b, entry.box)
        sibling = _Node(leaf=node.leaf, entries=group_b)
        node.entries = group_a
        for entry in sibling.entries:
            if entry.child is not None:
                entry.child.parent = sibling
        self._replace_in_parent(node, box_a, sibling, box_b)

    def _pick_seeds(self, entries: list[_Entry]) -> tuple[_Entry, _Entry]:
        worst: tuple[float, _Entry, _Entry] | None = None
        for i, a in enumerate(entries):
            for b in entries[i + 1:]:
                waste = (
                    box_area(box_union(a.box, b.box))
                    - box_area(a.box)
                    - box_area(b.box)
                )
                if worst is None or waste > worst[0]:
                    worst = (waste, a, b)
        assert worst is not None
        return worst[1], worst[2]

    def _replace_in_parent(
        self, node: _Node, node_box: Box, sibling: _Node, sibling_box: Box
    ) -> None:
        parent = node.parent
        if parent is None:
            new_root = _Node(leaf=False)
            new_root.entries = [
                _Entry(box=node_box, child=node),
                _Entry(box=sibling_box, child=sibling),
            ]
            node.parent = new_root
            sibling.parent = new_root
            self._root = new_root
            return
        for entry in parent.entries:
            if entry.child is node:
                entry.box = node_box
                break
        parent.entries.append(_Entry(box=sibling_box, child=sibling))
        sibling.parent = parent
        if len(parent.entries) > self.max_entries:
            self._split(parent)

    # -- bulk loading (STR packing) --------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        dimensions: int,
        items: list[tuple[Box, Any]],
        max_entries: int = 8,
    ) -> "RTree":
        """Build a packed tree with Sort-Tile-Recursive loading.

        When the whole condition set is known up front (a compiled rule
        base), STR packing yields near-full nodes and far less overlap
        than repeated insertion, so point queries visit fewer nodes.
        """
        tree = cls(dimensions, max_entries=max_entries)
        if not items:
            return tree
        entries = []
        for box, payload in items:
            if len(box) != dimensions:
                raise IndexError_("box dimensionality mismatch in bulk_load")
            if payload in tree._payload_entries:
                raise IndexError_(f"payload {payload!r} duplicated")
            entry = _Entry(box=box, payload=payload)
            tree._payload_entries[payload] = entry
            entries.append(entry)
        tree._size = len(entries)
        leaves = tree._str_pack(entries, leaf=True)
        level = leaves
        while len(level) > 1:
            parents = tree._str_pack(
                [_Entry(box=node.box(), child=node) for node in level],
                leaf=False,
            )
            level = parents
        tree._root = level[0]
        tree._root.parent = None
        return tree

    def _str_pack(self, entries: list[_Entry], leaf: bool) -> list[_Node]:
        """Pack *entries* into nodes by sort-tile-recursive slicing."""
        import math

        from repro.rindex.interval import approx

        def center(entry: _Entry, dim: int) -> float:
            interval = entry.box[dim]
            return (approx(interval.low) + approx(interval.high)) / 2.0

        def tile(block: list[_Entry], dim: int) -> list[list[_Entry]]:
            if dim >= self.dimensions - 1 or len(block) <= self.max_entries:
                block.sort(key=lambda e: center(e, dim))
                return [
                    block[i:i + self.max_entries]
                    for i in range(0, len(block), self.max_entries)
                ]
            block.sort(key=lambda e: center(e, dim))
            node_estimate = math.ceil(len(block) / self.max_entries)
            slices = max(
                1,
                math.ceil(node_estimate ** (1.0 / (self.dimensions - dim))),
            )
            slice_size = math.ceil(len(block) / slices)
            groups: list[list[_Entry]] = []
            for i in range(0, len(block), slice_size):
                groups.extend(tile(block[i:i + slice_size], dim + 1))
            return groups

        nodes: list[_Node] = []
        for group in tile(list(entries), 0):
            node = _Node(leaf=leaf, entries=group)
            for entry in group:
                if entry.child is not None:
                    entry.child.parent = node
            nodes.append(node)
        return nodes

    # -- deletion ------------------------------------------------------------------

    def remove(self, payload: Any) -> None:
        """Remove the entry carrying *payload*."""
        entry = self._payload_entries.pop(payload, None)
        if entry is None:
            raise IndexError_(f"payload {payload!r} not indexed")
        leaf = self._find_leaf(self._root, entry)
        if leaf is None:
            raise IndexError_(f"payload {payload!r} lost from the tree")
        leaf.entries.remove(entry)
        self._size -= 1
        self._condense(leaf)

    def _find_leaf(self, node: _Node, entry: _Entry) -> _Node | None:
        if node.leaf:
            return node if entry in node.entries else None
        for child_entry in node.entries:
            if boxes_intersect(child_entry.box, entry.box):
                found = self._find_leaf(child_entry.child, entry)
                if found is not None:
                    return found
        return None

    def _condense(self, node: _Node) -> None:
        orphans: list[_Entry] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self.min_entries:
                parent.entries = [
                    e for e in parent.entries if e.child is not node
                ]
                orphans.extend(self._all_leaf_entries(node))
            else:
                for entry in parent.entries:
                    if entry.child is node:
                        entry.box = node.box()
            node = parent
        if not self._root.leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0].child  # type: ignore[assignment]
            self._root.parent = None
        if not self._root.entries and not self._root.leaf:
            self._root = _Node(leaf=True)
        for orphan in orphans:
            self._insert_entry(orphan, into_leaves=True)

    def _all_leaf_entries(self, node: _Node) -> list[_Entry]:
        if node.leaf:
            return list(node.entries)
        collected: list[_Entry] = []
        for entry in node.entries:
            collected.extend(self._all_leaf_entries(entry.child))
        return collected

    # -- queries ---------------------------------------------------------------------

    def search_point(self, point: tuple[Key, ...]) -> Iterator[Any]:
        """Payloads whose box contains *point*."""
        if len(point) != self.dimensions:
            raise IndexError_("point dimensionality mismatch")
        yield from self._search_point(self._root, point)

    def _search_point(self, node: _Node, point: tuple[Key, ...]) -> Iterator[Any]:
        for entry in node.entries:
            if box_contains_point(entry.box, point):
                if node.leaf:
                    yield entry.payload
                else:
                    yield from self._search_point(entry.child, point)

    def search_box(self, box: Box) -> Iterator[Any]:
        """Payloads whose box intersects *box*."""
        if len(box) != self.dimensions:
            raise IndexError_("box dimensionality mismatch")
        yield from self._search_box(self._root, box)

    def _search_box(self, node: _Node, box: Box) -> Iterator[Any]:
        for entry in node.entries:
            if boxes_intersect(entry.box, box):
                if node.leaf:
                    yield entry.payload
                else:
                    yield from self._search_box(entry.child, box)


def _cover(entries: list[_Entry]) -> Box:
    covering = entries[0].box
    for entry in entries[1:]:
        covering = box_union(covering, entry.box)
    return covering
