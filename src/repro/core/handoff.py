"""Member handoff management (fast handoff via neighbour member lists).

The paper motivates ``ListOfNeighborMembers`` — the list of operational
members at neighbouring nodes of the hierarchy — as the ingredient for *fast
handoff*: when a mobile host moves to an adjacent cell, the new access proxy
very likely already has the member's record in its neighbour list, so it can
re-admit the member immediately and only propagate the attachment-point change
asynchronously, instead of treating the arrival as a brand-new join that must
climb the hierarchy before the member is served.

:class:`HandoffManager` wraps the structural engine (or, through a capture
hook, the event-driven scenario harness) and reports, per handoff, whether the
fast path applied, which the handoff-storm benchmark aggregates into a
fast-path hit ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.identifiers import GloballyUniqueId, NodeId, coerce_guid, coerce_node
from repro.core.kernel import ProtocolError
from repro.core.one_round import PropagationReport
from repro.core.query import MembershipStore

#: Enqueues one handoff: ``(guid, old_ap, new_ap, now)``; returns None when
#: the handoff was not captured (e.g. the new proxy has crashed).
HandoffCapture = Callable[[GloballyUniqueId, NodeId, NodeId, float], object]


@dataclass
class HandoffRecord:
    """Outcome of one handoff request."""

    guid: str
    from_ap: str
    to_ap: str
    fast_path: bool
    same_ring: bool
    time: float = 0.0


@dataclass
class HandoffStats:
    """Aggregate statistics over a sequence of handoffs."""

    records: List[HandoffRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def fast_path_hits(self) -> int:
        return sum(1 for r in self.records if r.fast_path)

    @property
    def fast_path_ratio(self) -> float:
        return self.fast_path_hits / self.total if self.total else 0.0

    @property
    def intra_ring_ratio(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.same_ring) / self.total


class HandoffManager:
    """Coordinates member handoffs against a protocol engine.

    ``engine`` supplies the hierarchy and per-entity state (``hierarchy`` and
    ``entity()``); ``capture`` enqueues each handoff and defaults to the
    engine's ``member_handoff`` (the structural
    :class:`repro.core.one_round.OneRoundEngine`).  The facade's event mode
    passes the scenario harness's kernel and capture instead, so the handoff
    propagates when the simulation engine runs.  The ``*_propagate`` helpers
    step the structural engine.
    """

    def __init__(self, engine: MembershipStore, capture: Optional[HandoffCapture] = None) -> None:
        self.engine = engine
        self._capture = capture if capture is not None else engine.member_handoff
        self.stats = HandoffStats()

    @property
    def hierarchy(self):
        return self.engine.hierarchy

    def _neighbor_has_member(self, new_ap: NodeId, guid: str) -> bool:
        entity = self.engine.entity(new_ap)
        return entity.neighbor_members.get(guid) is not None

    def _same_ring(self, a: NodeId, b: NodeId) -> bool:
        if not (self.hierarchy.has_node(a) and self.hierarchy.has_node(b)):
            return False
        return self.hierarchy.ring_of(a).ring_id == self.hierarchy.ring_of(b).ring_id

    def handoff(
        self,
        guid: "str",
        from_ap: "NodeId | str",
        to_ap: "NodeId | str",
        now: float = 0.0,
    ) -> HandoffRecord:
        """Perform one handoff and record whether the fast path applied."""
        guid_id = coerce_guid(guid)
        old_ap = coerce_node(from_ap)
        new_ap = coerce_node(to_ap)
        fast = self._neighbor_has_member(new_ap, str(guid_id))
        same_ring = self._same_ring(old_ap, new_ap)

        if self._capture(guid_id, old_ap, new_ap, now) is None:
            raise ProtocolError(f"handoff of {guid_id} to {new_ap} was not captured")

        record = HandoffRecord(
            guid=str(guid_id),
            from_ap=str(old_ap),
            to_ap=str(new_ap),
            fast_path=fast,
            same_ring=same_ring,
            time=now,
        )
        self.stats.records.append(record)
        return record

    def handoff_batch(
        self,
        moves: "List[tuple]",
        now: float = 0.0,
        propagate: bool = True,
    ) -> Optional[PropagationReport]:
        """Capture a storm of ``(guid, from_ap, to_ap)`` moves, then propagate once.

        All handoffs are enqueued before any token round runs, so they
        aggregate into shared rounds and the kernel applies each ring's
        operations as one compiled :class:`repro.core.deltas.MembershipDelta`
        (the batched path) — the per-handoff fast-path statistics are still
        recorded individually.
        """
        for guid, from_ap, to_ap in moves:
            self.handoff(guid, from_ap, to_ap, now=now)
        if not propagate:
            return None
        return self.engine.propagate(now=now)

    def handoff_and_propagate(
        self,
        guid: str,
        from_ap: "NodeId | str",
        to_ap: "NodeId | str",
        now: float = 0.0,
    ) -> PropagationReport:
        """Handoff, then propagate to quiescence (structural engine only)."""
        self.handoff(guid, from_ap, to_ap, now=now)
        return self.engine.propagate(now=now)

    def fast_path_ratio(self) -> float:
        return self.stats.fast_path_ratio

    def summary(self) -> Dict[str, float]:
        return {
            "handoffs": float(self.stats.total),
            "fast_path_hits": float(self.stats.fast_path_hits),
            "fast_path_ratio": self.stats.fast_path_ratio,
            "intra_ring_ratio": self.stats.intra_ring_ratio,
        }
