"""Columnar struct-of-arrays kernel backend.

The object kernel (:mod:`repro.core.kernel`) keeps per-proxy hot state on
:class:`repro.core.entity.NetworkEntityState` instances and pays CPython
object overhead per visit even when a round provably changes nothing — at a
million proxies the propagation of a small join burst spends ~95% of its
time discovering, one identifier-keyed dict probe at a time, that there is
nothing to do.  This module assigns every proxy a **dense integer index**
(rings in hierarchy iteration order, members ring-contiguous within each
ring) and keeps the hot per-proxy/per-ring state in numpy arrays owned by
:class:`ColumnarStore`:

``ring_start``
    CSR offsets: ring ``r`` owns dense node indices
    ``ring_start[r]:ring_start[r+1]`` (ring-contiguous layout, so a ring's
    circulation order is one contiguous index range).
``node_ring`` / ``node_pos``
    Per-node ring index and position within the ring's circulation order.
``alive`` / ``ring_dead``
    Per-node liveness flags and the per-ring dead-member counts they roll
    up to.
``ring_applied_max``
    Per-ring applied-sequence high-water mark (columnar mirror of the
    per-GUID ``ring_applied_seq`` maps, maintained by the fast round).
``ring_tier`` / ``ring_parent_ring`` / ``ring_leader_pos`` /
``ring_child_total`` / ``ring_version0``
    Structural columns: tier, parent-ring index (-1 at the top), leader
    position in circulation order, number of child rings bridged by the
    ring's members, and each ring's mutation counter at store build time.
``ring_has_state``
    Conservative per-ring flag: True once a ring may hold membership-view
    state (see :class:`ColumnarKernel`).
``ring_holder_pos``
    Runtime column: the next holder's circulation position, kept in sync
    with the kernel's ``_ring_holder`` pointer by the fast round (and
    re-derived whenever an object-path round moved the pointer behind the
    column's back).

Coverage checks are vectorised: a batch's covered-ring set is computed by
sweeping the ``ring_parent_ring`` column from the operations' access-proxy
ring indices to the root (one gather per tier, all operations at once)
instead of climbing dict chains per entry per visit.

:class:`ColumnarKernel` subclasses :class:`TokenRoundKernel` and keeps
**all** protocol state (queues, seen-sets, applied maps, counters, holder
pointers, metrics) bit-identical to the object kernel.  Its ``run_round``
takes a fast path only when the columnar state proves the round cannot
change any membership view:

* ``batched_apply`` is on, tracing is off, and no *non-local* hierarchy
  surgery has happened (``structure_dirty``);
* the ring's shape is unchanged (``version`` matches ``ring_version0``)
  and none of its members has failed (``ring_dead == 0``);
* no drained member operation has a coverage chain — computed by the
  vectorised parent sweep — that includes this ring (network-entity
  operations never touch a membership view, so they ride along);
* the ring has never held membership-view state (``ring_has_state``).

Under those conditions the object kernel's per-visit delta application is a
proven no-op at every member, so the fast path performs the identical
bookkeeping (drain, seen/applied marks, token/notify/ack hops, counters,
holder rotation, dispatch callbacks in the same order) without touching the
entity objects — member entities are reached positionally through dense
per-ring rows, never through identifier-keyed dict probes.  Any round that
fails a gate falls back to ``super().run_round`` and the ring is
conservatively marked ``ring_has_state`` — over-marking only costs speed,
never correctness.  Every fallback is counted by reason in
``ColumnarKernel.decline_counts``.  ``pending_rings`` and ``propagate`` get
the same treatment: identical candidate verification and scheduling, with
the queued-work scans running over the dense rows.

Ring repair is as local here as in the paper (Section 5.2).  The repair
(``repair_ring``: survivors re-pointed, parent link patched, the ring keeps
a leader) moves no ring to another parent ring, so the ring-level columns
and coverage chains stay exact; it only retires the wiring the surgery
changed.  The repaired ring itself declines through its version gate (and
its dead-member count), the parent ring's child plan and each orphaned
child ring's parent plan fall back to the live entity pointers, and every
other ring keeps the fused round.  A repair the store cannot follow — a
ring left without a leader, wiring the store cannot describe — still sets
``structure_dirty`` and switches the fast path off for good.

Known limitation: state planted behind the kernel's back via
``NetworkEntityState.register_local_member`` on a ring the kernel never ran
an object-path round for is invisible to ``ring_has_state``.  No in-repo
caller does this (the only kernel-side direct mutation is the handoff
unregister at the old proxy, whose ring was necessarily marked when the
member's join circulated there); external code driving entities directly
should use the object backend.
"""

from __future__ import annotations

import io
import warnings
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.entity import NetworkEntityState
from repro.core.hierarchy import RingHierarchy, paused_gc
from repro.core.identifiers import NodeId, coerce_node
from repro.core.kernel import (
    DirectDispatch,
    PropagationReport,
    RoundResult,
    TokenRoundKernel,
    _RingDirtyMarker,
)
from repro.core.message_queue import QueuedMessage
from repro.core.ring import LogicalRing

__all__ = ["ColumnarStore", "ColumnarKernel"]


class ColumnarStore:
    """Dense-index struct-of-arrays view of a :class:`RingHierarchy`.

    Built once per kernel (or rehydrated from a topology snapshot's shipped
    arrays); the structural columns describe the hierarchy *at build time*
    and every consumer gates on ``structure_dirty`` *and* per-ring versions
    before trusting them (a local repair moves only the repaired ring's
    version).
    """

    __slots__ = (
        "ring_ids",
        "ring_index",
        "ring_start",
        "ring_tier",
        "ring_parent_ring",
        "ring_parent_pos",
        "ring_leader_pos",
        "ring_version0",
        "ring_child_total",
        "ring_version0_i",
        "ring_leader_pos_i",
        "ring_child_total_i",
        "ring_parent_ring_i",
        "ring_parent_pos_i",
        "ring_start_i",
        "ring_tier_i",
        "ring_dead",
        "ring_has_state",
        "ring_applied_max",
        "ring_holder_pos",
        "ring_work_hint",
        "ring_hint_wired",
        "node_ring",
        "node_pos",
        "alive",
        "alive_i",
        "bottom_tier",
        "structure_dirty",
        "rebuilt_from_mismatch",
    )

    def __init__(
        self,
        ring_ids: List[str],
        ring_start: np.ndarray,
        ring_tier: np.ndarray,
        ring_parent_ring: np.ndarray,
        ring_parent_pos: np.ndarray,
        ring_leader_pos: np.ndarray,
        ring_version0: np.ndarray,
        ring_child_total: np.ndarray,
        bottom_tier: int,
    ) -> None:
        ring_count = len(ring_ids)
        node_count = int(ring_start[-1]) if ring_count else 0
        self.ring_ids = ring_ids
        # dict(zip(...)) runs the insert loop in C (same trick as the ring's
        # position index).
        self.ring_index: Dict[str, int] = dict(zip(ring_ids, range(ring_count)))
        self.ring_start = ring_start
        self.ring_tier = ring_tier
        self.ring_parent_ring = ring_parent_ring
        self.ring_parent_pos = ring_parent_pos
        self.ring_leader_pos = ring_leader_pos
        self.ring_version0 = ring_version0
        self.ring_child_total = ring_child_total
        self.bottom_tier = bottom_tier
        # Scalar mirrors of the structural columns.  The fast round reads
        # these once per ring per round; a numpy scalar index boxes a new
        # array scalar (~10x a list index), so the per-round gates go
        # through plain int lists while the arrays stay canonical for the
        # vectorised sweeps and the snapshot payload.
        self.ring_version0_i = ring_version0.tolist()
        self.ring_leader_pos_i = ring_leader_pos.tolist()
        self.ring_child_total_i = ring_child_total.tolist()
        self.ring_parent_ring_i = ring_parent_ring.tolist()
        self.ring_parent_pos_i = ring_parent_pos.tolist()
        self.ring_start_i = ring_start.tolist()
        self.ring_tier_i = ring_tier.tolist()
        # Mutable per-ring / per-node hot state.  The per-ring columns are
        # written every round (holder position, applied high-water), so they
        # live as plain int lists for the same boxing reason; the per-node
        # columns stay numpy (bulk-built, rarely written).
        self.ring_dead = [0] * ring_count
        self.ring_has_state = [False] * ring_count
        self.ring_applied_max = [0] * ring_count
        self.ring_holder_pos = [-1] * ring_count
        # Per-ring queued-work hint: -2 = unknown (scan the row), -1 = no
        # member holds queued work, p >= 0 = *only* position p may hold
        # queued work (verified on every use).  Only rings whose dirty
        # marker the kernel wired (``ring_hint_wired``) ever leave -2 —
        # every insert funnels through the marker, which degrades the hint
        # to -2, so a "no work" claim can never go stale-low.
        self.ring_work_hint = [-2] * ring_count
        self.ring_hint_wired = [False] * ring_count
        counts = np.diff(ring_start) if ring_count else np.zeros(0, dtype=np.int64)
        self.node_ring = np.repeat(np.arange(ring_count, dtype=np.int32), counts)
        self.node_pos = (
            np.arange(node_count, dtype=np.int32)
            - np.repeat(ring_start[:-1], counts).astype(np.int32)
            if ring_count
            else np.zeros(0, dtype=np.int32)
        )
        self.alive = np.ones(node_count, dtype=np.bool_)
        # List mirror of ``alive``: the dense forward path reads one flag
        # per candidate target and a numpy scalar read would dominate it.
        self.alive_i = [True] * node_count
        self.structure_dirty = False
        # True when a shipped snapshot payload failed shape validation and
        # the store was rebuilt from the hierarchy instead (observable via
        # the ``harness.columnar_snapshot_rebuilt`` metric on the kernel).
        self.rebuilt_from_mismatch = False

    # -- construction -------------------------------------------------------

    @classmethod
    def from_hierarchy(cls, hierarchy: RingHierarchy) -> "ColumnarStore":
        """Build the columns by one pass over the hierarchy's ring table."""
        rings = hierarchy.rings
        ring_ids = list(rings.keys())
        ring_count = len(ring_ids)
        ring_values = list(rings.values())
        counts = np.fromiter(
            (len(r.members) for r in ring_values), dtype=np.int64, count=ring_count
        )
        ring_start = np.zeros(ring_count + 1, dtype=np.int64)
        np.cumsum(counts, out=ring_start[1:])
        ring_tier = np.fromiter(
            (r.tier for r in ring_values), dtype=np.int32, count=ring_count
        )
        ring_version0 = np.fromiter(
            (r.version for r in ring_values), dtype=np.int64, count=ring_count
        )
        ring_leader_pos = np.fromiter(
            (_leader_position(r) for r in ring_values),
            dtype=np.int32,
            count=ring_count,
        )
        ring_index = dict(zip(ring_ids, range(ring_count)))
        parent_node = hierarchy.parent_node
        ring_of_node = hierarchy.ring_of_node
        ring_parent_ring = np.full(ring_count, -1, dtype=np.int64)
        ring_parent_pos = np.full(ring_count, -1, dtype=np.int32)
        for r, ring_id in enumerate(ring_ids):
            parent = parent_node.get(ring_id)
            if parent is None:
                continue
            parent_ring_id = ring_of_node.get(parent)
            if parent_ring_id is None:
                continue
            parent_ring_idx = ring_index.get(parent_ring_id, -1)
            ring_parent_ring[r] = parent_ring_idx
            if parent_ring_idx >= 0:
                try:
                    ring_parent_pos[r] = ring_values[parent_ring_idx].members.index(
                        parent
                    )
                except ValueError:
                    pass
        ring_child_total = np.zeros(ring_count, dtype=np.int64)
        for node, child_ring_ids in hierarchy.child_rings.items():
            node_ring_id = ring_of_node.get(node)
            if node_ring_id is None:
                continue
            ring_child_total[ring_index[node_ring_id]] += len(child_ring_ids)
        return cls(
            ring_ids,
            ring_start,
            ring_tier,
            ring_parent_ring,
            ring_parent_pos,
            ring_leader_pos,
            ring_version0,
            ring_child_total,
            hierarchy.bottom_tier() if ring_count else 0,
        )

    # -- snapshot transport -------------------------------------------------

    def to_payload(self) -> bytes:
        """Serialise the structural columns (npz, no pickle)."""
        buffer = io.BytesIO()
        np.savez(
            buffer,
            ring_start=self.ring_start,
            ring_tier=self.ring_tier,
            ring_parent_ring=self.ring_parent_ring,
            ring_parent_pos=self.ring_parent_pos,
            ring_leader_pos=self.ring_leader_pos,
            ring_version0=self.ring_version0,
            ring_child_total=self.ring_child_total,
            bottom_tier=np.asarray([self.bottom_tier], dtype=np.int64),
        )
        return buffer.getvalue()

    @classmethod
    def from_payload(cls, hierarchy: RingHierarchy, payload: bytes) -> "ColumnarStore":
        """Rehydrate from shipped arrays; ring ids come from the hierarchy.

        Falls back to :meth:`from_hierarchy` when the arrays do not match
        the hierarchy's shape (a snapshot/hierarchy pairing bug would
        otherwise corrupt the fast path silently).  The fallback is loud:
        it emits a :class:`RuntimeWarning` and flags the returned store
        (``rebuilt_from_mismatch``) so the kernel can surface a metric — a
        stale pairing costs every cell its fast path, which used to happen
        with zero signal.
        """
        with np.load(io.BytesIO(payload), allow_pickle=False) as arrays:
            ring_start = arrays["ring_start"]
            ring_tier = arrays["ring_tier"]
            ring_parent_ring = arrays["ring_parent_ring"]
            ring_parent_pos = arrays["ring_parent_pos"]
            ring_leader_pos = arrays["ring_leader_pos"]
            ring_version0 = arrays["ring_version0"]
            ring_child_total = arrays["ring_child_total"]
            bottom_tier = int(arrays["bottom_tier"][0])
        rings = hierarchy.rings
        ring_ids = list(rings.keys())
        if len(ring_ids) != len(ring_tier) or int(ring_start[-1]) != sum(
            len(r.members) for r in rings.values()
        ):
            warnings.warn(
                "columnar snapshot payload does not match the hierarchy shape "
                f"(payload: {len(ring_tier)} rings / {int(ring_start[-1])} nodes, "
                f"hierarchy: {len(ring_ids)} rings / "
                f"{sum(len(r.members) for r in rings.values())} nodes); "
                "rebuilding the store from the hierarchy — the snapshot "
                "pairing is stale and the shipped arrays were discarded",
                RuntimeWarning,
                stacklevel=2,
            )
            store = cls.from_hierarchy(hierarchy)
            store.rebuilt_from_mismatch = True
            return store
        return cls(
            ring_ids,
            ring_start,
            ring_tier,
            ring_parent_ring,
            ring_parent_pos,
            ring_leader_pos,
            ring_version0,
            ring_child_total,
            bottom_tier,
        )

    # -- vectorised sweeps --------------------------------------------------

    def covered_ring_indices(self, ap_ring_indices: Sequence[int]) -> FrozenSet[int]:
        """Ring indices covering any of the given (bottom-tier) AP rings.

        Vectorised ancestor sweep: one ``ring_parent_ring`` gather per tier
        moves *all* chains up one level at once.  Matches
        ``TokenRoundKernel.ring_covers`` on an unmodified hierarchy: a
        non-bottom start ring covers nothing, chains include the start ring
        itself and stop at the root.
        """
        if not ap_ring_indices:
            return frozenset()
        current = np.unique(np.asarray(ap_ring_indices, dtype=np.int64))
        current = current[self.ring_tier[current] == self.bottom_tier]
        levels: List[np.ndarray] = []
        while current.size:
            levels.append(current)
            current = self.ring_parent_ring[current]
            current = np.unique(current[current >= 0])
        if not levels:
            return frozenset()
        return frozenset(np.concatenate(levels).tolist())

    def tier_ring_indices(self, tier: int) -> np.ndarray:
        """Store-order indices of every ring in ``tier`` (vectorised).

        Store order follows hierarchy iteration order, which for regular
        hierarchies is also lexicographic ring-id order — the same fan-out
        order the object query path derives from ``rings_in_tier``.  Only
        valid while ``structure_dirty`` is False; the serving layer gates on
        that (and on the selected rings' versions) before trusting the
        structural columns.
        """
        return np.nonzero(self.ring_tier == tier)[0]

    def tier_leader_rows(self, tier: int) -> Tuple[np.ndarray, np.ndarray]:
        """(ring indices, dense leader rows) for every led ring of ``tier``.

        The snapshot export hook for the serving layer: one boolean sweep
        over the structural columns yields the leader row of every ring in
        the tier (rings without a leader are dropped), so a fan-out query
        can gather all leader views without touching ring objects.
        """
        rings = self.tier_ring_indices(tier)
        leader_pos = self.ring_leader_pos[rings]
        led = leader_pos >= 0
        rings = rings[led]
        rows = self.ring_start[rings] + leader_pos[led]
        return rings, rows

    def dead_ring_count(self) -> int:
        """Rings with at least one failed member (diagnostics)."""
        return sum(1 for dead in self.ring_dead if dead)

    def summary(self) -> Dict[str, int]:
        """Cheap structural summary for tests and diagnostics."""
        return {
            "rings": len(self.ring_ids),
            "nodes": int(self.alive.shape[0]),
            "bottom_rings": int(np.count_nonzero(self.ring_tier == self.bottom_tier)),
            "rings_with_state": sum(1 for flag in self.ring_has_state if flag),
            "dead_nodes": int(np.count_nonzero(~self.alive)),
            "applied_max": max(self.ring_applied_max, default=0),
        }


def _leader_position(ring) -> int:
    """The leader's index in circulation order (-1 for no leader)."""
    leader = ring.leader
    if leader is None:
        return -1
    members = ring.members
    if members and members[0] is leader:
        return 0
    try:
        return members.index(leader)
    except ValueError:
        return -1


#: Why a round declined the fused path (keys of ``decline_counts``):
#: ``disabled`` (``batched_apply`` off), ``structure`` (``structure_dirty``,
#: or a ring the store cannot describe), ``trace``, ``ring_version`` (the
#: ring was repaired), ``dead_member``, ``leader``, ``holder`` (the caller
#: named a non-member), ``has_state`` and ``covered`` (the batch may change
#: a view here).
DECLINE_REASONS: Tuple[str, ...] = (
    "disabled", "structure", "trace", "ring_version", "dead_member",
    "leader", "holder", "has_state", "covered",
)


class ColumnarKernel(TokenRoundKernel):
    """The object kernel with a columnar no-op-round fast path.

    Drop-in subclass: construction, capture, repair, application and every
    piece of protocol state are inherited unchanged, so any round that is
    not *provably* a no-op behaves bit-identically by construction.  See
    the module docstring for the fast-path gates.
    """

    #: True while :meth:`exclude_entity` runs a repair it will
    #: invalidate locally; the inherited surgery's ``invalidate_coverage``
    #: call must not switch the fast path off then.
    _local_surgery = False

    def __init__(self, *args, store_payload: Optional[bytes] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Object-path fallbacks by reason (see ``DECLINE_REASONS``).  A
        #: plain dict on purpose: metric counters feed the run fingerprints
        #: that must stay identical across backends.
        self.decline_counts: Dict[str, int] = dict.fromkeys(DECLINE_REASONS, 0)
        with paused_gc():
            if store_payload is not None:
                self._store = ColumnarStore.from_payload(self.hierarchy, store_payload)
                if self._store.rebuilt_from_mismatch:
                    self.metrics.counter("harness.columnar_snapshot_rebuilt").increment()
            else:
                self._store = ColumnarStore.from_hierarchy(self.hierarchy)
            self._ring_rows = self._build_entity_rows()
            self._parent_plan, self._child_plan = self._build_forward_plans()
            # Ring objects in store order (ring ids always come from the
            # hierarchy's iteration order, payload path included).  Ring
            # objects are identity-stable after construction — the rings
            # dict is only assigned during hierarchy building — so the fast
            # paths can reach ``version``/``members`` by dense index
            # instead of probing the million-entry rings dict per round.
            self._ring_objs = list(self.hierarchy.rings.values())
            self._wire_work_hints()
        #: Covered-ring sets per drained batch, keyed by the operations'
        #: sequence tuple (sequences are unique per capture and aggregation
        #: preserves a collapsed operation's member AP, so the key is
        #: content-stable).  Cleared whenever coverage is invalidated.
        self._batch_cover: Dict[Tuple[int, ...], FrozenSet[int]] = {}
        #: (target ring, sequence tuple) pairs whose forward filtered to
        #: empty.  Seen-sets and applied high-waters only grow, so an
        #: empty-fresh verdict is permanent and the repeat forward (every
        #: child of an upper ring reports the same batch back up to the
        #: same parent) collapses to one set probe.
        self._fully_seen: set = set()
        self._fast_enabled = bool(self.config.batched_apply)
        # Per-ring aliases of the seen-set / applied-map entries, filled on
        # first use: the sets/dicts are only ever mutated in place, so the
        # dense row and the kernel's string-keyed mapping stay one object.
        ring_count = len(self._store.ring_ids)
        self._seen_rows: List[Optional[set]] = [None] * ring_count
        self._applied_rows: List[Optional[Dict[str, int]]] = [None] * ring_count
        # ProtocolConfig is frozen; hoist the per-round flag reads.
        self._disseminate_downward = self.config.disseminate_downward
        self._holder_ack_enabled = self.config.holder_ack_enabled
        # Direct (synchronous, receiver-effect-free) dispatch lets the fast
        # path inline notification delivery and skip no-op ack callbacks.
        self._direct_dispatch = type(self.dispatch) is DirectDispatch

    @property
    def store(self) -> ColumnarStore:
        """The columnar struct-of-arrays store (read-only structural view).

        The snapshot export hook for the serving layer: consumers must gate
        on ``store.structure_dirty`` and on each ring's version (against
        ``ring_version0_i``) before trusting the structural columns.
        """
        return self._store

    def tier_leader_views(self, tier: int):
        """Per-ring ``(ring, leader entity)`` pairs for ``tier``, ring-id order.

        The serving layer's leader-row gather: ring selection and leader
        rows come from one vectorised sweep over the structural columns
        (:meth:`ColumnarStore.tier_leader_rows`) and each leader entity is
        reached positionally through the dense per-ring rows — no rings-dict
        scan, no identifier-keyed entity probes.  Returns ``None`` whenever
        the columns cannot be trusted (non-local hierarchy surgery happened,
        a selected ring was repaired since the store was built, or a ring
        row fell back to object alignment); callers must then derive the
        fan-out from the hierarchy itself.
        """
        store = self._store
        if store.structure_dirty:
            return None
        rings_idx, rows = store.tier_leader_rows(tier)
        ring_objs = self._ring_objs
        entity_rows = self._ring_rows
        ring_ids = store.ring_ids
        ring_start = store.ring_start_i
        version0 = store.ring_version0_i
        out = []
        for r, row in zip(rings_idx.tolist(), rows.tolist()):
            entities = entity_rows[r]
            ring = ring_objs[r]
            if entities is None or ring.version != version0[r]:
                return None
            out.append((ring_ids[r], ring, entities[row - ring_start[r]]))
        out.sort(key=lambda item: item[0])
        return [(ring, entity) for _, ring, entity in out]

    def _build_entity_rows(self) -> List[Optional[List[NetworkEntityState]]]:
        """Dense per-ring entity rows aligned with circulation order.

        Entities built in-house (or passed pristine) iterate in exact
        (ring, member) order, so the rows come from one lockstep pass with
        identity checks only; otherwise fall back to per-node lookups.  A
        ring with members missing from the entity map gets ``None`` (its
        rounds stay on the object path, which raises the proper errors).
        """
        rings = self.hierarchy.rings.values()
        entities = self.entities
        rows: List[Optional[List[NetworkEntityState]]] = []
        entity_iter = iter(entities.values())
        aligned = True
        for ring in rings:
            row: List[NetworkEntityState] = []
            for node in ring.members:
                entity = next(entity_iter, None)
                if entity is None or (
                    entity.current is not node and entity.current != node
                ):
                    aligned = False
                    break
                row.append(entity)
            if not aligned:
                break
            rows.append(row)
        if aligned:
            return rows
        rows = []
        for ring in rings:
            row = []
            for node in ring.members:
                entity = entities.get(node)
                if entity is None:
                    row = None
                    break
                row.append(entity)
            rows.append(row)
        return rows

    def _wire_work_hints(self) -> None:
        """Hook the per-ring dirty markers into ``ring_work_hint``.

        The kernel assigns one :class:`_RingDirtyMarker` per ring to every
        member's queue wiring, so a ring's marker is reachable through any
        member (``row[0]``).  A marker is wired only when it really is that
        ring's own marker (its ``_ring_id`` resolves back to the same dense
        index); anything else leaves the ring permanently at hint -2, which
        only costs scans, never correctness.  Initial state: a ring outside
        the dirty set provably holds no queued work (the same every-insert
        hook guarantee the dirty set itself relies on), so wired rings
        start at -1 and dirty rings at -2.
        """
        store = self._store
        hints = store.ring_work_hint
        wired = store.ring_hint_wired
        ring_index = store.ring_index
        for idx, row in enumerate(self._ring_rows):
            if not row:
                continue
            marker = row[0].mq_hook
            if type(marker) is not _RingDirtyMarker:
                continue
            if ring_index.get(marker._ring_id) != idx:
                continue
            marker._hints = hints
            marker._hint_idx = idx
            wired[idx] = True
            hints[idx] = -1
        for ring_id in self._dirty_rings:
            idx = ring_index.get(ring_id)
            if idx is not None:
                hints[idx] = -2

    def _build_forward_plans(self):
        """Precomputed dense forward targets for the proven-no-op round.

        Parent/child pointers only change through ``exclude_entity``, which
        either sets ``structure_dirty`` or retires every plan the surgery
        rewired (see :meth:`exclude_entity`), so a surviving plan is the
        live wiring and the fast round can forward by (ring index, position)
        without identifier-keyed dict probes.  Plans address the build-time
        rows, which never shift: a target in a repaired ring is still the
        same entity.  Each plan entry is validated against the live entity
        pointers at build time; anything that does not line up stays
        ``None`` and falls back to the generic forward.

        Returns ``(parent_plan, child_plan)``:

        ``parent_plan[r]``
            ``(parent_ring_idx, parent_pos, parent_dense_idx)`` for the
            leader's Notification-to-Parent target, or ``None``.
        ``child_plan[r]``
            Per-position tuples of ``(child_ring_idx, child_pos,
            child_dense_idx)`` triples mirroring each member's ``children``
            list (only for rings that bridge child rings), or ``None``.
        """
        store = self._store
        rows = self._ring_rows
        rings = self.hierarchy.rings
        ring_of_node = self.hierarchy.ring_of_node
        ring_index = store.ring_index
        ring_start = store.ring_start_i
        ring_count = len(store.ring_ids)
        parent_plan: List[Optional[Tuple[int, int, int]]] = [None] * ring_count
        child_plan: List[Optional[List[Tuple]]] = [None] * ring_count
        for r in range(ring_count):
            row = rows[r]
            if row is None:
                continue
            lp = store.ring_leader_pos_i[r]
            pidx = store.ring_parent_ring_i[r]
            ppos = store.ring_parent_pos_i[r]
            if lp >= 0 and pidx >= 0 and ppos >= 0:
                prow = rows[pidx]
                if prow is not None and ppos < len(prow):
                    leader_entity = row[lp]
                    target = prow[ppos].current
                    parent = leader_entity.parent
                    if parent is not None and (parent is target or parent == target):
                        parent_plan[r] = (pidx, ppos, ring_start[pidx] + ppos)
            if not store.ring_child_total_i[r]:
                continue
            plan: List[Tuple] = []
            ok = True
            for entity in row:
                triples = []
                for child in entity.children:
                    child_ring_id = ring_of_node.get(child)
                    cidx = (
                        ring_index.get(child_ring_id)
                        if child_ring_id is not None
                        else None
                    )
                    crow = rows[cidx] if cidx is not None else None
                    if crow is None:
                        ok = False
                        break
                    try:
                        cpos = rings[child_ring_id].members.index(child)
                    except ValueError:
                        ok = False
                        break
                    dense_target = crow[cpos].current
                    if dense_target is not child and dense_target != child:
                        ok = False
                        break
                    triples.append((cidx, cpos, ring_start[cidx] + cpos))
                if not ok:
                    break
                plan.append(tuple(triples))
            if ok:
                child_plan[r] = plan
        return parent_plan, child_plan

    # -- state tracking overrides ------------------------------------------

    def fail_entity(self, node: "NodeId | str", now: float = 0.0) -> None:
        key = coerce_node(node)
        first_failure = key not in self.failed
        super().fail_entity(key, now)
        if not first_failure:
            return
        store = self._store
        ring_id = self.hierarchy.ring_of_node.get(key)
        if ring_id is None:
            return
        ring_idx = store.ring_index.get(ring_id)
        if ring_idx is None:
            return
        store.ring_dead[ring_idx] += 1
        # Mark by build-time row position: forward plans address the
        # build-time rows, and a ring repaired earlier has shifted its live
        # member list, so ``ring.members`` positions would mark the wrong
        # node (leaving a dead plan target looking alive).
        entity = self.entities[key]
        row = self._ring_rows[ring_idx]
        if row is not None:
            for pos, candidate in enumerate(row):
                if candidate is entity:
                    dense = store.ring_start_i[ring_idx] + pos
                    store.alive[dense] = False
                    store.alive_i[dense] = False
                    return
        self._switch_off()

    def invalidate_coverage(self) -> None:
        if not self._local_surgery:
            self._switch_off()
        super().invalidate_coverage()

    def _switch_off(self) -> None:
        # Surgery the store cannot follow: the structural columns no longer
        # describe the live hierarchy, so the fast path switches off
        # globally.
        self._store.structure_dirty = True
        self._batch_cover.clear()
        self._fully_seen.clear()  # still valid; dropped only to bound memory

    def exclude_entity(self, failed: NodeId) -> LogicalRing:
        """Hierarchy surgery with repair-local invalidation.

        The repair re-attaches orphaned child rings to a node of the *same*
        ring and patches the parent link in place, so no ring changes parent
        ring: ring-level coverage stays exact (it can only shrink, by the
        excised node), and the only stale dense wiring is the parent ring's
        child plan (its child slot moved to the new leader) and each orphan
        ring's parent plan.  Those fall back to the live entity pointers;
        the repaired ring declines through its version and dead-member
        gates.  Cached batch coverage may now over-approximate, which only
        costs declines.  Anything else sets ``structure_dirty``.
        """
        store = self._store
        if store.structure_dirty:
            return super().exclude_entity(failed)
        hierarchy = self.hierarchy
        key = coerce_node(failed)
        ring_index = store.ring_index
        ring_id = hierarchy.ring_of_node.get(key)
        ring_idx = ring_index.get(ring_id) if ring_id is not None else None
        orphan_ids = list(hierarchy.child_rings.get(key, ()))
        self._local_surgery = True
        try:
            ring = super().exclude_entity(key)
        finally:
            self._local_surgery = False
        rows = self._ring_rows
        parent = hierarchy.parent_node.get(ring.ring_id)
        parent_idx: Optional[int] = -1  # -1: the top ring has no parent
        if parent is not None:
            parent_ring_id = hierarchy.ring_of_node.get(parent)
            parent_idx = (
                ring_index.get(parent_ring_id) if parent_ring_id is not None else None
            )
        orphan_idx = [ring_index.get(orphan) for orphan in orphan_ids]
        if (
            ring_idx is None
            or ring.leader is None
            or rows[ring_idx] is None
            # No dead member counted (the node was excluded without failing,
            # or failed behind ``fail_entity``'s back): the ring would pass
            # the dead-member gate with a stale row.
            or not store.ring_dead[ring_idx]
            or parent_idx is None
            or None in orphan_idx
        ):
            self._switch_off()
            return ring
        if parent_idx >= 0:
            self._child_plan[parent_idx] = None
        for idx in orphan_idx:
            self._parent_plan[idx] = None
        return ring

    def apply_operations_at(self, node, ring, operations, now, batched=None):
        # Any application at a ring may create membership-view state there.
        ring_idx = self._store.ring_index.get(ring.ring_id)
        if ring_idx is not None:
            self._store.ring_has_state[ring_idx] = True
        return super().apply_operations_at(node, ring, operations, now, batched)

    # -- fast-path helpers --------------------------------------------------

    def _object_round(
        self, ring_idx: Optional[int], ring_id: str, holder, now: float, reason: str
    ) -> RoundResult:
        """Fall back to the object kernel, conservatively marking the ring."""
        self.decline_counts[reason] += 1
        if ring_idx is not None:
            # The object path may apply operations (or repair) here; assume
            # the ring holds state from now on.  It also drains queues
            # behind the work hint's back, so the hint degrades to
            # "unknown" — a positive hint must always imply queued work.
            self._store.ring_has_state[ring_idx] = True
            self._store.ring_work_hint[ring_idx] = -2
        return super().run_round(ring_id, holder=holder, now=now)

    def _batch_covered(self, key: Tuple[int, ...], entries) -> FrozenSet[int]:
        cached = self._batch_cover.get(key)
        if cached is not None:
            return cached
        store = self._store
        ring_of_node = self.hierarchy.ring_of_node
        ring_index = store.ring_index
        ap_rings: List[int] = []
        for entry in entries:
            member = entry.operation.member
            if member is None:
                continue  # NE operation: covers no ring
            ap_ring_id = ring_of_node.get(member.ap)
            if ap_ring_id is None:
                continue
            ap_ring_idx = ring_index.get(ap_ring_id)
            if ap_ring_idx is not None:
                ap_rings.append(ap_ring_idx)
        covered = store.covered_ring_indices(ap_rings)
        self._batch_cover[key] = covered
        return covered

    def _fast_forward(
        self, sender: NodeId, target: NodeId, operations, now, seq_key=None
    ) -> int:
        """``forward_notification`` for the proven-no-op round.

        Identical filtering and delivery; the crashed-target repair path
        delegates to the inherited implementation.
        """
        target_entity = self.entities.get(target)
        if target_entity is None:
            return 0
        failed = self.failed
        if failed and target in failed:
            return self.forward_notification(sender, target, operations, now)
        target_ring_id = self.hierarchy.ring_of_node.get(target)
        if target_ring_id is None:
            return 0
        if target_ring_id not in self.hierarchy.rings:
            raise KeyError(target_ring_id)
        if seq_key is not None and (target_ring_id, seq_key) in self._fully_seen:
            return 0
        seen = self.ring_seen[target_ring_id]
        applied = self.ring_applied_seq.get(target_ring_id)
        if applied:
            # Inlined stale_for (one Python call per op adds up at scale).
            applied_get = applied.get
            fresh = []
            for op in operations:
                sequence = op.sequence
                if sequence in seen:
                    continue
                member = op.member
                if member is not None and sequence <= applied_get(member.guid.value, 0):
                    continue
                fresh.append(op)
        else:
            fresh = [op for op in operations if op.sequence not in seen]
        if not fresh:
            if seq_key is not None:
                self._fully_seen.add((target_ring_id, seq_key))
            return 0
        for op in fresh:
            seen.add(op.sequence)
        if self._direct_dispatch:
            # Inlined DirectDispatch.deliver_notification.  When the queue
            # has standard kernel wiring, also inline the no-pending-entry
            # insert case: the dirty-marking hook is an idempotent set add
            # (one call covers the batch) and a member op whose aggregation
            # key is absent is stored as-is, so the queue state is identical
            # to per-op ``insert`` calls.  Any op with a pending entry, any
            # network-entity op and any non-standard queue go through the
            # real insert path.
            target_mq = target_entity.mq
            hook = target_mq.on_enqueue
            if target_mq.aggregate and type(hook) is _RingDirtyMarker:
                entries_map = target_mq._store()
                hook()
                for op in fresh:
                    member = op.member
                    if member is None:
                        # NE operation: synthetic queue key, real insert.
                        target_mq.insert(op, sender=sender, now=now)
                        continue
                    key = member.guid.value
                    if key in entries_map:
                        target_mq.insert(op, sender=sender, now=now)
                    else:
                        target_mq.total_enqueued += 1
                        entries_map[key] = QueuedMessage(
                            operation=op, sender=sender, enqueued_at=now
                        )
            else:
                for op in fresh:
                    target_mq.insert(op, sender=sender, now=now)
        else:
            self.dispatch.deliver_notification(self, sender, target, fresh, now)
        self._c_notifications.increment()
        return 1

    def _dense_forward(
        self, sender: NodeId, target_idx: int, target_pos: int, operations, now, seq_key
    ) -> int:
        """``_fast_forward`` addressed by (ring index, position).

        Callers resolve the target through a build-time forward plan and
        check liveness through ``alive_i`` first, so the per-forward work
        collapses to the seen/applied filter and the queue insert — no
        entity, ring or seen-set lookups through identifier-keyed maps.
        Only valid for a plan that is still live (see
        :meth:`exclude_entity`).
        """
        if (target_idx, seq_key) in self._fully_seen:
            return 0
        seen = self._seen_rows[target_idx]
        if seen is None:
            seen = self.ring_seen[self._store.ring_ids[target_idx]]
            self._seen_rows[target_idx] = seen
        applied = self._applied_rows[target_idx]
        if applied is None:
            # ``.get`` (not setdefault): the object path does not create an
            # applied map on forward, so neither may we; the alias row fills
            # once the target ring runs its own round.
            applied = self.ring_applied_seq.get(self._store.ring_ids[target_idx])
            if applied is not None:
                self._applied_rows[target_idx] = applied
        if applied:
            applied_get = applied.get
            fresh = []
            for op in operations:
                sequence = op.sequence
                if sequence in seen:
                    continue
                member = op.member
                if member is not None and sequence <= applied_get(member.guid.value, 0):
                    continue
                fresh.append(op)
        else:
            fresh = [op for op in operations if op.sequence not in seen]
        if not fresh:
            self._fully_seen.add((target_idx, seq_key))
            return 0
        for op in fresh:
            seen.add(op.sequence)
        target_entity = self._ring_rows[target_idx][target_pos]
        if self._direct_dispatch:
            # Same inlined delivery as ``_fast_forward``.
            target_mq = target_entity.mq
            hook = target_mq.on_enqueue
            if target_mq.aggregate and type(hook) is _RingDirtyMarker:
                # Work-hint refinement: the hook degrades the target ring's
                # hint to -2 ("unknown"); when the pre-insert hint proved no
                # *other* position held work (-1, or already this position)
                # the post-insert state is known precisely, so the target
                # ring's next round can skip its holder scan entirely.
                hints = hook._hints
                old_hint = (
                    hints[target_idx]
                    if hints is not None and hook._hint_idx == target_idx
                    else -2
                )
                entries_map = target_mq._store()
                hook()
                for op in fresh:
                    member = op.member
                    if member is None:
                        # NE operation: synthetic queue key, real insert.
                        target_mq.insert(op, sender=sender, now=now)
                        continue
                    key = member.guid.value
                    if key in entries_map:
                        target_mq.insert(op, sender=sender, now=now)
                    else:
                        target_mq.total_enqueued += 1
                        entries_map[key] = QueuedMessage(
                            operation=op, sender=sender, enqueued_at=now
                        )
                if old_hint == -1 or old_hint == target_pos:
                    hints[target_idx] = target_pos if entries_map else -1
            else:
                for op in fresh:
                    target_mq.insert(op, sender=sender, now=now)
        else:
            self.dispatch.deliver_notification(
                self, sender, target_entity.current, fresh, now
            )
        self._c_notifications._value += 1
        return 1

    # -- columnar round scheduling -----------------------------------------

    def pending_rings(self) -> List[str]:
        store = self._store
        if not self._fast_enabled or store.structure_dirty:
            return super().pending_rings()
        return [ring_id for _, ring_id, _ in self._pending_pairs()]

    def _pending_pairs(self) -> List[Tuple[int, str, int]]:
        """Verified pending candidates as ``(tier, ring_id, ring_idx)``.

        Same dirty-set verification and cleanup as the object kernel's
        ``pending_rings``, but the queued-work check consults the per-ring
        work hint first: -1 retires the candidate with zero probes, a
        position hint is trusted outright (a positive hint always implies
        queued work: it is only ever written next to a non-empty insert,
        and every drain path either resets it or degrades it to -2), and
        only -2 falls back to the dense row scan.  Ring versions are not
        re-checked here: they only move through ``exclude_entity``, which
        either sets ``structure_dirty`` (``pending_rings`` then delegates
        to the object scan) or repairs a ring that already counts a dead
        member, and such rings take the live-member scan — ``propagate``
        still re-validates the version per round.  Sorted bottom-up then
        lexicographic — the object kernel's deterministic order — with
        tiers read from the store column instead of a rings-dict probe per
        candidate.
        """
        store = self._store
        dirty = self._dirty_rings
        if not dirty:
            return []
        pending: List[Tuple[int, str, int]] = []
        clean: List[str] = []
        failed = self.failed
        entities = self.entities
        ring_index = store.ring_index
        ring_dead = store.ring_dead
        ring_tier = store.ring_tier_i
        hints = store.ring_work_hint
        wired = store.ring_hint_wired
        rows = self._ring_rows
        for ring_id in dirty:
            ring_idx = ring_index.get(ring_id)
            has_work = False
            tier = 0
            if ring_idx is not None:
                tier = ring_tier[ring_idx]
                row = rows[ring_idx]
                if row is not None and not ring_dead[ring_idx]:
                    hint = hints[ring_idx]
                    if hint >= 0:
                        has_work = True
                    elif hint == -2:
                        # No failed member: scan the dense row positionally.
                        for entity in row:
                            if entity.mq_live and entity.mq._entries:
                                has_work = True
                                break
                        else:
                            if wired[ring_idx]:
                                hints[ring_idx] = -1
                    # hint == -1: provably no queued work, zero probes.
                else:
                    ring = self._ring_objs[ring_idx]
                    for node in ring.members:
                        if node not in failed and entities[node].has_queued_work():
                            has_work = True
                            break
            else:
                ring = self.hierarchy.rings.get(ring_id)
                if ring is not None:
                    tier = ring.tier
                    for node in ring.members:
                        if node not in failed and entities[node].has_queued_work():
                            has_work = True
                            break
            if has_work:
                pending.append((tier, ring_id, ring_idx))
            else:
                clean.append(ring_id)
        for ring_id in clean:
            dirty.discard(ring_id)
        pending.sort()
        return pending

    def propagate(
        self, now: float = 0.0, max_iterations: int = 10_000
    ) -> PropagationReport:
        store = self._store
        report = PropagationReport()
        rounds_append = report.rounds.append
        run_round = self.run_round
        failed = self.failed
        entities = self.entities
        ring_dead = store.ring_dead
        ring_version0 = store.ring_version0_i
        hints = store.ring_work_hint
        rows = self._ring_rows
        ring_objs = self._ring_objs
        hierarchy_ring = self.hierarchy.ring
        fused = self._fused_round
        # Propagation allocates short-lived, cycle-free objects (messages,
        # round results, operation tuples) by the hundred-thousand; without
        # the pause the generational collector re-walks the multi-million
        # object hierarchy heap every few thousand allocations and roughly
        # doubles large-scale propagate time.
        with paused_gc():
            for _ in range(max_iterations):
                if (
                    not self._fast_enabled
                    or store.structure_dirty
                    or self.trace.enabled
                ):
                    # Generic sweep: identical to the object kernel's loop
                    # (``pending_rings`` delegates to the object scan too).
                    pending = self.pending_rings()
                    if not pending:
                        return report
                    for ring_id in pending:
                        ring = hierarchy_ring(ring_id)
                        if all(node in failed for node in ring.members):
                            continue
                        if not any(
                            node not in failed and entities[node].has_queued_work()
                            for node in ring.members
                        ):
                            continue
                        rounds_append(run_round(ring_id, now=now))
                    continue
                pairs = self._pending_pairs()
                if not pairs:
                    return report
                for _tier, ring_id, ring_idx in pairs:
                    # Identical sweep semantics to the object kernel, which
                    # re-checks each pending ring for queued work before its
                    # round: a round in another ring can *remove* this
                    # ring's work as well as add to it (an inserted leave
                    # cancels a queued join of the same member).  The work
                    # hint answers the re-check without a row scan in the
                    # common case: -1 has no work, a position hint needs one
                    # probe (and then names the holder), -2 scans the row.
                    row = rows[ring_idx] if ring_idx is not None else None
                    if (
                        row is not None
                        and not store.structure_dirty
                        and not ring_dead[ring_idx]
                    ):
                        ring = ring_objs[ring_idx]
                        if ring.version == ring_version0[ring_idx]:
                            hint = hints[ring_idx]
                            if hint == -1:
                                continue
                            if hint >= 0:
                                entity = row[hint]
                                if entity.mq_live and entity.mq._entries:
                                    members = ring.members
                                    rounds_append(
                                        fused(
                                            ring_idx,
                                            ring_id,
                                            members,
                                            row,
                                            now,
                                            hint,
                                            members[hint],
                                        )
                                    )
                                    continue
                            for entity in row:
                                if entity.mq_live and entity.mq._entries:
                                    break
                            else:
                                continue
                            rounds_append(
                                fused(ring_idx, ring_id, ring.members, row, now)
                            )
                            continue
                    ring = hierarchy_ring(ring_id)
                    if all(node in failed for node in ring.members):
                        continue
                    if not any(
                        node not in failed and entities[node].has_queued_work()
                        for node in ring.members
                    ):
                        continue
                    rounds_append(run_round(ring_id, now=now))
        from repro.core.kernel import ProtocolError

        raise ProtocolError(
            f"propagation did not converge within {max_iterations} iterations"
        )

    # -- the fast round -----------------------------------------------------

    def run_round(
        self,
        ring_id: str,
        holder: Optional["NodeId | str"] = None,
        now: float = 0.0,
    ) -> RoundResult:
        store = self._store
        if not self._fast_enabled or store.structure_dirty or self.trace.enabled:
            if not self._fast_enabled:
                self.decline_counts["disabled"] += 1
            elif store.structure_dirty:
                self.decline_counts["structure"] += 1
            else:
                self.decline_counts["trace"] += 1
                # Traced rounds drain queues through the object path while
                # the hint machinery stays live: degrade the ring's hint so
                # a positive claim never outlives its queue entries.
                ring_idx = store.ring_index.get(ring_id)
                if ring_idx is not None:
                    store.ring_work_hint[ring_idx] = -2
            return super().run_round(ring_id, holder=holder, now=now)
        ring_idx = store.ring_index.get(ring_id)
        if ring_idx is None:
            self.decline_counts["structure"] += 1
            return super().run_round(ring_id, holder=holder, now=now)
        ring = self.hierarchy.rings[ring_id]
        members = ring.members
        size = len(members)
        row = self._ring_rows[ring_idx]
        if size == 0 or row is None:
            return self._object_round(ring_idx, ring_id, holder, now, "structure")
        if ring.version != store.ring_version0_i[ring_idx]:
            return self._object_round(ring_idx, ring_id, holder, now, "ring_version")
        if store.ring_dead[ring_idx]:
            return self._object_round(ring_idx, ring_id, holder, now, "dead_member")
        leader_pos = store.ring_leader_pos_i[ring_idx]
        if leader_pos >= 0:
            leader = members[leader_pos]
            if leader is not ring.leader and leader != ring.leader:
                return self._object_round(ring_idx, ring_id, holder, now, "leader")
        elif ring.leader is not None:
            return self._object_round(ring_idx, ring_id, holder, now, "leader")

        # Holder resolution (no member has failed, so the object kernel's
        # failed-holder error cannot apply here).
        if holder is not None:
            holder_id = coerce_node(holder)
            try:
                holder_pos = members.index(holder_id)
            except ValueError:
                # Not a member: the object path raises the proper error.
                return self._object_round(ring_idx, ring_id, holder, now, "holder")
            return self._fused_round(
                ring_idx, ring_id, members, row, now, holder_pos, holder_id
            )
        return self._fused_round(ring_idx, ring_id, members, row, now)

    def _fused_round(
        self,
        ring_idx: int,
        ring_id: str,
        members: Sequence[NodeId],
        row: Sequence[NetworkEntityState],
        now: float,
        holder_pos: int = -1,
        holder_id: Optional[NodeId] = None,
    ) -> RoundResult:
        """The proven-no-op round body, minus re-validation.

        ``propagate`` calls this directly for every sweep candidate that
        passed the cheap dense gates (row present, structure clean, no dead
        member, version unchanged); the structural facts ``run_round``
        re-validates per call — leader identity, holder membership — are
        invariant while the ring's version is unchanged (they only change
        through ``exclude_entity`` of one of its members), so the fused path
        trusts the build-time columns outright.  The public
        ``run_round`` keeps the full validation and delegates here.

        ``holder_pos < 0`` means "pick the holder": the work hint resolves
        it in O(1) when it names the single position holding queued work
        (first-with-work from the pointer degenerates to exactly that
        position), falling back to the pointer scan otherwise.
        """
        store = self._store
        hints = store.ring_work_hint
        if holder_pos < 0:
            hint = hints[ring_idx]
            if hint >= 0:
                entity = row[hint]
                if entity.mq_live and entity.mq._entries:
                    holder_pos = hint
                else:
                    holder_pos = self._fast_pick_holder(
                        ring_idx, ring_id, members, row
                    )
            else:
                holder_pos = self._fast_pick_holder(ring_idx, ring_id, members, row)
            holder_id = members[holder_pos]

        holder_entity = row[holder_pos]
        holder_mq = holder_entity.mq if holder_entity.mq_live else None
        entry_map = holder_mq._entries if holder_mq is not None else None
        entries = tuple(entry_map.values()) if entry_map else ()

        seq_key: Optional[Tuple[int, ...]] = None
        if entries:
            if store.ring_has_state[ring_idx]:
                return self._object_round(
                    ring_idx, ring_id, holder_id, now, "has_state"
                )
            # Network-entity operations (repair traffic) ride along: the
            # object path compiles them out of the delta's member entries,
            # so they never touch a membership view.
            seq_key = tuple([entry.operation.sequence for entry in entries])
            covered = self._batch_covered(seq_key, entries)
            if ring_idx in covered:
                # This ring is in an operation's coverage chain: the apply
                # is not a no-op here.
                return self._object_round(ring_idx, ring_id, holder_id, now, "covered")

        # ---- proven no-op round: identical bookkeeping, no entity churn ----
        operations = tuple([entry.operation for entry in entries])
        if entry_map:
            entry_map.clear()  # drain_entries semantics
        # ``is not`` suffices for the holder test: identifiers are interned,
        # and an equal-but-distinct sender would be a member of this ring and
        # is dropped by the ring test either way.
        ring_of_node = self.hierarchy.ring_of_node
        child_senders = [
            entry.sender
            for entry in entries
            if entry.sender is not holder_id
            and ring_of_node.get(entry.sender) != ring_id
        ]

        seen = self._seen_rows[ring_idx]
        if seen is None:
            seen = self.ring_seen[ring_id]
            self._seen_rows[ring_idx] = seen
        applied = self._applied_rows[ring_idx]
        if applied is None:
            applied = self.ring_applied_seq.setdefault(ring_id, {})
            self._applied_rows[ring_idx] = applied
        applied_get = applied.get
        max_sequence = 0
        for operation in operations:
            sequence = operation.sequence
            seen.add(sequence)
            member = operation.member
            if member is None:
                continue  # NE operation: no per-member high-water mark
            guid = member.guid.value
            if sequence > applied_get(guid, 0):
                applied[guid] = sequence
            if sequence > max_sequence:
                max_sequence = sequence
        if max_sequence > store.ring_applied_max[ring_idx]:
            store.ring_applied_max[ring_idx] = max_sequence

        next(self._token_ids)  # same token-id stream as the object path
        order = members[holder_pos:] + members[:holder_pos]
        # RoundResult is a plain (non-slots) dataclass; building the field
        # dict directly skips the generated __init__ and the default
        # factories on the per-round hot path.
        result = RoundResult.__new__(RoundResult)
        result.__dict__ = {
            "ring_id": ring_id,
            "holder": holder_id,
            "operations": operations,
            "token_hops": 0,
            "notify_hops": 0,
            "ack_hops": 0,
            "retransmissions": 0,
            "visited": order,
            "repaired": [],
            "events": [],
        }
        self._c_rounds_started._value += 1

        dispatch = self.dispatch
        emit_token = dispatch.emits_token_messages
        failed = self.failed
        has_children = (
            self._disseminate_downward and store.ring_child_total_i[ring_idx]
        )
        size = len(members)
        token_hops = size if size >= 2 else 0
        notify_hops = 0
        forwarded_up = False
        forward = self._fast_forward
        lp = store.ring_leader_pos_i[ring_idx]

        if (operations or emit_token) and not emit_token and not has_children:
            # Childless ring, dispatch without token messages: the only
            # observable effect of the whole circulation is the leader's
            # upward forward, so the visit loop collapses to that one call.
            # A validated parent plan subsumes the ``parent_ok``/``parent``
            # probes: those flags only change through ``exclude_entity``,
            # which retires the plan (or dirties the structure), so a
            # surviving plan is the live wiring.
            if lp >= 0:
                pp = self._parent_plan[ring_idx]
                if pp is not None:
                    if store.alive_i[pp[2]]:
                        # Inlined ``_dense_forward`` early-out: when the
                        # parent ring already saw this whole batch the
                        # forward filters to nothing, so skip the call.
                        # This is every bottom ring's round after the
                        # first sibling reported the batch back up.
                        if (pp[0], seq_key) not in self._fully_seen:
                            notify_hops += self._dense_forward(
                                members[lp], pp[0], pp[1], operations, now, seq_key
                            )
                    else:
                        # Crashed parent: the inherited repair hook.
                        notify_hops += self.forward_notification(
                            members[lp], row[lp].parent, operations, now
                        )
                    forwarded_up = True
                else:
                    entity = row[lp]
                    if entity.parent_ok and entity.parent is not None:
                        notify_hops += forward(
                            members[lp], entity.parent, operations, now, seq_key
                        )
                        forwarded_up = True
        elif operations or emit_token:
            cplan = self._child_plan[ring_idx] if has_children else None
            alive_i = store.alive_i
            dense = self._dense_forward
            previous_node = holder_id
            pos = holder_pos
            for node in order:
                if node is not holder_id:
                    if emit_token:
                        dispatch.token_hop(self, previous_node, node, now)
                    previous_node = node
                if operations:
                    # Figure 3 lines 10-13: leader forwards to its parent.
                    # (Plan-first: see the collapse branch for why a built
                    # plan subsumes the ``parent_ok`` probes.)
                    if pos == lp:
                        pp = self._parent_plan[ring_idx]
                        if pp is not None:
                            if alive_i[pp[2]]:
                                notify_hops += dense(
                                    node, pp[0], pp[1], operations, now, seq_key
                                )
                            else:
                                notify_hops += self.forward_notification(
                                    node, row[pos].parent, operations, now
                                )
                            forwarded_up = True
                        else:
                            entity = row[pos]
                            if entity.parent_ok and entity.parent is not None:
                                notify_hops += forward(
                                    node, entity.parent, operations, now, seq_key
                                )
                                forwarded_up = True
                    # Figure 3 lines 14-16: notify child rings.  The
                    # child-total column keeps bottom rings (the vast
                    # majority) from ever probing the lazy children lists;
                    # the plan mirrors each member's children list (the
                    # object path skips crashed children without a forward).
                    if has_children:
                        if cplan is not None:
                            for cidx, cpos, cdense in cplan[pos]:
                                if not alive_i[cdense]:
                                    continue
                                notify_hops += dense(
                                    node, cidx, cpos, operations, now, seq_key
                                )
                        else:
                            entity = row[pos]
                            if entity.children:
                                for child in list(entity.children):
                                    if child in failed:
                                        continue
                                    notify_hops += forward(
                                        node, child, operations, now, seq_key
                                    )
                pos += 1
                if pos >= size:
                    pos = 0
            if emit_token and size >= 2:
                # Closing hop back to the holder.
                dispatch.token_hop(self, previous_node, holder_id, now)

        result.token_hops = token_hops
        result.notify_hops = notify_hops

        # Leader failed-before-its-turn fallback (cannot trigger with
        # ring_dead == 0 unless a mid-round repair elsewhere rewired the
        # leader's parent link; mirror the object path regardless).  While
        # the ring's version is unchanged the leader column is the live
        # leader, so ``members[lp]``/``row[lp]`` stand in for the
        # ring-object probes.
        if operations and not forwarded_up and lp >= 0:
            leader_id = members[lp]
            leader_entity = row[lp]
            if leader_id not in failed:
                parent_target = self.upward_target(leader_entity, leader_id)
                if parent_target is not None:
                    result.notify_hops += self.forward_notification(
                        leader_id, parent_target, operations, now
                    )

        # Figure 3 lines 17-20: Holder-Acknowledgement to originating children.
        # (The single-sender case — virtually every dissemination round —
        # skips the dedup dict; ``increment`` is inlined like the other
        # counter bumps below.)
        if child_senders and operations and self._holder_ack_enabled:
            direct = self._direct_dispatch
            senders = (
                child_senders
                if len(child_senders) == 1
                else dict.fromkeys(child_senders)
            )
            for sender in senders:
                if sender in failed:
                    continue
                result.ack_hops += 1
                self._c_holder_ack._value += 1
                if not direct:
                    # DirectDispatch acks have no receiver-side effect.
                    dispatch.deliver_holder_ack(self, holder_id, sender, now)

        # Figure 3 lines 21-23: the holder pointer moves to the next member.
        next_pos = holder_pos + 1
        if next_pos >= size:
            next_pos = 0
        self._ring_holder[ring_id] = members[next_pos]
        store.ring_holder_pos[ring_idx] = next_pos

        # The dirty set only over-approximates rings with queued work; this
        # round's targets all live in other rings, so if no member holds
        # work now the candidate can be retired without waiting for the next
        # sweep's (cold-cache) verification scan to discard it.  The work
        # hint usually settles this without the row scan: the round drained
        # the holder's queue, so a hint still naming the holder (or -1)
        # proves the ring clean.  (-1/positive states only exist on wired
        # rings, so writing -1 back in those branches is always legal.)
        end_hint = hints[ring_idx]
        if end_hint == -1 or end_hint == holder_pos:
            hints[ring_idx] = -1
            self._dirty_rings.discard(ring_id)
        elif end_hint >= 0:
            entity = row[end_hint]
            if not (entity.mq_live and entity.mq._entries):
                hints[ring_idx] = -1
                self._dirty_rings.discard(ring_id)
        else:
            for entity in row:
                if entity.mq_live and entity.mq._entries:
                    break
            else:
                if store.ring_hint_wired[ring_idx]:
                    hints[ring_idx] = -1
                self._dirty_rings.discard(ring_id)

        self._c_rounds_completed._value += 1
        self._c_hops_token._value += token_hops
        self._c_hops_notify._value += result.notify_hops
        self._c_hops_ack._value += result.ack_hops
        return result

    def _fast_pick_holder(
        self,
        ring_idx: int,
        ring_id: str,
        members: Sequence[NodeId],
        row: Sequence[NetworkEntityState],
    ) -> int:
        """``pick_holder`` for a ring with no failed members: start at the
        holder pointer, first member with queued work, else the start."""
        size = len(members)
        start = self._ring_holder.get(ring_id)
        if start is None:
            start_pos = 0
        else:
            cached_pos = self._store.ring_holder_pos[ring_idx]
            if 0 <= cached_pos < size and members[cached_pos] is start:
                start_pos = cached_pos
            else:
                # An object-path round moved the pointer; re-derive.
                try:
                    start_pos = members.index(start)
                except ValueError:
                    start_pos = 0
        pos = start_pos
        for _ in range(size):
            entity = row[pos]
            if entity.mq_live and entity.mq._entries:
                return pos
            pos += 1
            if pos >= size:
                pos = 0
        return start_pos
