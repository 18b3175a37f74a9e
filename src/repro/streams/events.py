"""Update-stream events.

An update stream ``∆Ri`` (Section 3.1) is a totally ordered sequence of
insertions and deletions to relation ``Ri``. The engine processes each
update to completion before the next one, matching the paper's global
ordering assumption.
"""

from __future__ import annotations

from enum import IntEnum
from functools import partial
from itertools import repeat
from typing import Iterable, Iterator, List, NamedTuple, Tuple

from repro.errors import ConfigError
from repro.streams.tuples import CompositeTuple, Layout, Row

# Size of one input tuple in bytes, as fixed by the paper's experimental
# setup ("All input tuples are 32 bytes long", Section 7.1). Used by the
# memory accounting in Section 5 / Figure 13.
TUPLE_BYTES = 32


class Sign(IntEnum):
    """Polarity of an update: +1 insertion, -1 deletion."""

    INSERT = 1
    DELETE = -1

    def flipped(self) -> "Sign":
        """The opposite polarity."""
        return Sign.DELETE if self is Sign.INSERT else Sign.INSERT


class Update(NamedTuple):
    """One element of an update stream ``∆R``."""

    relation: str
    row: Row
    sign: Sign
    seq: int  # position in the global update ordering

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        symbol = "+" if self.sign is Sign.INSERT else "-"
        return f"{symbol}{self.relation}{self.row.values}@{self.seq}"


class OutputDelta(NamedTuple):
    """One element of the result stream: a signed n-way join tuple.

    ``rows`` holds one :class:`Row` per relation, laid out as ``layout``.
    Equality and hashing mean the same relation→row bindings and sign,
    whatever layout produced the delta.
    """

    rows: tuple
    layout: Layout
    sign: Sign

    @property
    def composite(self) -> CompositeTuple:
        """The name-keyed view of ``rows``, built on each read."""
        return CompositeTuple(self.layout, self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutputDelta):
            return NotImplemented
        return self.sign == other.sign and self.composite == other.composite

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash((self.composite, self.sign))


_new_delta = partial(tuple.__new__, OutputDelta)


def output_deltas(
    composites: Iterable[tuple], layout: Layout, sign: Sign
) -> List[OutputDelta]:
    """One :class:`OutputDelta` per row tuple, all laid out as ``layout``
    and carrying ``sign``.

    An update can emit hundreds of deltas, so the list is built by
    ``map`` over C callables: no Python frame per delta, which the
    generated ``OutputDelta.__new__`` (and ``_make``) would cost.
    """
    return list(map(_new_delta, zip(composites, repeat(layout), repeat(sign))))


class DeltaBatch:
    """A group of *consecutive* updates processed as one unit.

    Micro-batching never reorders updates: the batch is processed in
    global order and every window mutation happens at exactly the same
    point as in per-update execution, so the emitted delta multiset and
    the final window contents are identical by construction. What a batch
    buys is modeled amortization: a join step's match set for one
    constraint signature is computed once per batch (until the probed
    window changes) and reused at ``batch_memo_hit`` in place of the probe
    and residual charges (``BatchProbeMemo``), and within one call
    ``cache_probe`` and ``cache_maintain_check`` are charged once per
    distinct key. The wall-clock gain is smaller (docs/api.md).

    A batch of size 1 is processed exactly like a bare update, charge for
    charge.
    """

    __slots__ = ("updates",)

    def __init__(self, updates: Iterable[Update]):
        self.updates: Tuple[Update, ...] = tuple(updates)
        if not self.updates:
            raise ConfigError(
                "DeltaBatch.updates must contain at least one update"
            )

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self) -> Iterator[Update]:
        return iter(self.updates)

    def __getitem__(self, index):
        return self.updates[index]

    @property
    def relations(self) -> Tuple[str, ...]:
        """Distinct relations updated in this batch, in first-seen order."""
        seen = dict.fromkeys(u.relation for u in self.updates)
        return tuple(seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        first, last = self.updates[0], self.updates[-1]
        return (
            f"DeltaBatch(n={len(self.updates)}, "
            f"seq={first.seq}..{last.seq})"
        )


def batched(updates: Iterable[Update], size: int) -> Iterator[DeltaBatch]:
    """Group an update stream into consecutive :class:`DeltaBatch` chunks.

    The final batch may be shorter than ``size``. ``size=1`` yields one
    singleton batch per update (per-update execution semantics).
    """
    if size < 1:
        raise ConfigError(f"batch size must be >= 1, got {size}")
    chunk: list = []
    for update in updates:
        chunk.append(update)
        if len(chunk) >= size:
            yield DeltaBatch(chunk)
            chunk = []
    if chunk:
        yield DeltaBatch(chunk)


def canonical_delta(delta: "OutputDelta") -> tuple:
    """A rid-free, hashable identity for one result delta.

    Keys on relation names and attribute *values*, not row identities, so
    two runs that produce the same results through different internal row
    numbering (or with injected fresh-rid copies) compare equal exactly
    when the visible results are equal. Used by the chaos harness and the
    shard-equivalence merge.
    """
    return (
        int(delta.sign),
        tuple(sorted(zip(
            delta.layout.names, [row.values for row in delta.rows]
        ))),
    )
