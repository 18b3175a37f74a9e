"""Hash partitioning of update streams across shards.

A multiway equijoin can be split into independent shards when every
output composite is fully determined by one *attribute equivalence
class*: the transitive closure of the query's equijoin predicates groups
attributes into classes whose members are all equal within any result
tuple. Partitioning every relation that owns an attribute of one chosen
class by a stable hash of that attribute's value co-locates all the rows
of any potential result on a single shard, so the union of the shards'
outputs is exactly the serial output, each result emitted exactly once.

Relations with no attribute in the chosen class cannot be shard-aligned
and are **broadcast**: every shard keeps a full copy of their window and
processes all of their updates. Their join results still surface exactly
once, because each result also contains partitioned rows that live on
only one shard.

The class is chosen to minimize the declared arrival-rate mass of the
broadcast relations (ties broken lexicographically), so e.g. the
three-way chain ``R ⋈A S ⋈B T`` with T five times hotter than R
partitions on the ``{S.B, T.B}`` class and broadcasts only R.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ParallelError
from repro.relations.predicates import AttrRef, JoinGraph
from repro.streams.events import Update


def stable_hash(value: object) -> int:
    """A hash that is identical across processes and interpreter runs.

    ``hash(str)`` is salted per process (PYTHONHASHSEED), which would
    route the same tuple to different shards in different workers; ints
    hash to themselves and everything else goes through CRC32 of its
    repr. Only used for shard routing, so quality just needs to be
    "spreads integer domains evenly".
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    return zlib.crc32(repr(value).encode("utf-8"))


@dataclass(frozen=True)
class PartitionScheme:
    """How one query's streams map onto ``shard_count`` shards."""

    shard_count: int
    class_attrs: Tuple[AttrRef, ...]          # the chosen equivalence class
    positions: Mapping[str, int]              # relation -> partition column
    broadcast: Tuple[str, ...]                # relations copied to all shards

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ParallelError(
                f"shard count must be >= 1, got {self.shard_count}"
            )

    @property
    def partitioned(self) -> Tuple[str, ...]:
        """Relations that are hash-partitioned (not broadcast)."""
        return tuple(sorted(self.positions))

    def shard_of_value(self, value: object) -> int:
        """The shard owning one partition-attribute value."""
        return stable_hash(value) % self.shard_count

    def shards_for(self, update: Update) -> Tuple[int, ...]:
        """The shards that must process ``update``.

        Broadcast relations go everywhere. A partition-attribute value
        that cannot be hashed (e.g. an injected corrupt sentinel) also
        falls back to broadcast, so every shard's ingress guard sees it
        exactly as the serial engine would.
        """
        if self.shard_count == 1:
            return (0,)
        position = self.positions.get(update.relation)
        if position is None:
            return tuple(range(self.shard_count))
        try:
            return (self.shard_of_value(update.row.values[position]),)
        except TypeError:
            return tuple(range(self.shard_count))

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly summary for reports and docs."""
        return {
            "shards": self.shard_count,
            "class": [f"{a.relation}.{a.attribute}" for a in self.class_attrs],
            "partitioned": list(self.partitioned),
            "broadcast": list(self.broadcast),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        attrs = ",".join(f"{a.relation}.{a.attribute}" for a in self.class_attrs)
        return (
            f"PartitionScheme({self.shard_count} shards on [{attrs}]; "
            f"broadcast {list(self.broadcast)})"
        )


def attribute_classes(graph: JoinGraph) -> List[Tuple[AttrRef, ...]]:
    """The equivalence classes of join attributes under the predicates.

    Uses the graph's transitive closure, so ``R1.A = R2.A = R3.A`` is a
    single three-member class even if only adjacent equalities were
    written.
    """
    parent: Dict[AttrRef, AttrRef] = {}

    def find(ref: AttrRef) -> AttrRef:
        parent.setdefault(ref, ref)
        while parent[ref] != ref:
            parent[ref] = parent[parent[ref]]
            ref = parent[ref]
        return ref

    for pred in graph.predicates:
        left, right = find(pred.left), find(pred.right)
        if left != right:
            parent[left] = right
    classes: Dict[AttrRef, List[AttrRef]] = {}
    for ref in parent:
        classes.setdefault(find(ref), []).append(ref)
    return sorted(tuple(sorted(c)) for c in classes.values())


def choose_scheme(
    graph: JoinGraph,
    shard_count: int,
    rates: Optional[Mapping[str, float]] = None,
) -> PartitionScheme:
    """Pick the partitioning class that minimizes broadcast traffic.

    ``rates`` weighs each relation by its declared arrival rate (how many
    updates a shard would re-process if the relation were broadcast);
    without rates every relation weighs 1. Ties break on the
    lexicographically smallest class so the choice is deterministic.
    """
    if shard_count < 1:
        raise ParallelError(f"shard count must be >= 1, got {shard_count}")
    classes = attribute_classes(graph)
    if not classes:
        raise ParallelError(
            "cannot partition a join with no equijoin predicates"
        )

    def weight(relation: str) -> float:
        if rates is None:
            return 1.0
        return float(rates.get(relation, 1.0))

    best: Optional[Tuple[float, Tuple[AttrRef, ...]]] = None
    for cls in classes:
        covered = {ref.relation for ref in cls}
        broadcast_cost = sum(
            weight(name) for name in graph.relations if name not in covered
        )
        key = (broadcast_cost, cls)
        if best is None or key < best:
            best = key
    _, chosen = best
    positions: Dict[str, int] = {}
    for ref in chosen:
        # A relation could own several attributes of the class (e.g. a
        # self-equality materialized by closure); the first sorted member
        # wins, and any member is correct since they are equal per-row
        # only across relations — within a relation we just need one
        # deterministic column.
        positions.setdefault(ref.relation, graph.attr_position(ref))
    broadcast = tuple(
        sorted(name for name in graph.relations if name not in positions)
    )
    return PartitionScheme(
        shard_count=shard_count,
        class_attrs=chosen,
        positions=positions,
        broadcast=broadcast,
    )


def scheme_for_workload(workload, shard_count: int) -> PartitionScheme:
    """Rate-aware scheme for a synthetic workload."""
    return choose_scheme(workload.graph, shard_count, rates=workload.rates)
