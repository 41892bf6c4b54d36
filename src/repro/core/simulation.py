"""The :class:`RGBSimulation` facade — topology + hierarchy + protocol in one object.

This is the public entry point a downstream user starts from::

    from repro import RGBSimulation, SimulationConfig

    sim = RGBSimulation(SimulationConfig(num_aps=25, ring_size=5, seed=7))
    sim.build()
    member = sim.join_member(ap_index=0)
    sim.run_until_quiescent()
    assert member.guid in sim.global_membership()

The facade:

* generates a 4-tier mobile Internet topology big enough for the requested
  number of access proxies,
* assembles the ring-based hierarchy over the participating proxies,
* runs either the structural reference engine or, with
  ``engine_mode="event"``, the event-driven
  :class:`repro.sim.harness.ScenarioHarness` over that hierarchy (latency,
  transport, crash detection by a probe token round),
* exposes the application-facing membership operations (join, leave, handoff,
  member failure, entity crash), membership queries, handoff management,
  partition assessment and the collected metrics.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Union

from repro.core.config import SimulationConfig
from repro.core.events import MembershipEventBus
from repro.core.handoff import HandoffManager, HandoffRecord
from repro.core.hierarchy import RingHierarchy
from repro.core.identifiers import GroupId, NodeId, coerce_guid, coerce_node
from repro.core.kernel import TokenRoundKernel
from repro.core.member import MemberInfo
from repro.core.membership import MembershipEvent, MembershipView
from repro.core.one_round import OneRoundEngine, PropagationReport
from repro.core.partition import PartitionManager, PartitionReport
from repro.core.query import MembershipQueryService, MembershipScheme, MembershipStore, QueryResult
from repro.core.ring import LogicalRing
from repro.sim.engine import SimulationEngine
from repro.sim.faults import FaultEvent, FaultInjector, FaultKind
from repro.sim.harness import HarnessConfig, ScenarioHarness
from repro.sim.mobility import AttachmentEvent, HandoffEvent, MobilityModel, MobilityTrace
from repro.sim.rng import RandomStreams
from repro.sim.stats import MetricRegistry
from repro.sim.trace import TraceRecorder
from repro.sim.transport import Transport
from repro.topology.architecture import TopologySpec
from repro.topology.generator import GeneratedTopology, TopologyGenerator


class SimulationNotBuilt(RuntimeError):
    """Raised when the facade is used before :meth:`RGBSimulation.build`."""


class RGBSimulation:
    """End-to-end packaged simulation of the RGB protocol.

    ``protocol`` holds the membership state either way: the structural
    :class:`OneRoundEngine`, or in event mode the ``harness``'s kernel.  In
    event mode the facade also adopts the harness's engine, metrics, trace,
    event bus, transport and fault injector.
    """

    def __init__(self, config: Optional[SimulationConfig] = None) -> None:
        self.config = config if config is not None else SimulationConfig()
        self.streams = RandomStreams(self.config.seed)
        self.metrics = MetricRegistry()
        self.trace = TraceRecorder(enabled=self.config.trace_enabled)
        self.event_bus = MembershipEventBus()
        self.engine = SimulationEngine()
        self.topology: Optional[GeneratedTopology] = None
        self.hierarchy: Optional[RingHierarchy] = None
        self.protocol: Optional[MembershipStore] = None
        self.harness: Optional[ScenarioHarness] = None
        self._kernel: Optional[TokenRoundKernel] = None
        self.transport: Optional[Transport] = None
        self.faults: Optional[FaultInjector] = None
        self.partition_manager: Optional[PartitionManager] = None
        self._handoff_manager: Optional[HandoffManager] = None
        self._member_counter = 0
        self._member_location: Dict[str, NodeId] = {}
        self._built = False
        self._now = 0.0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _topology_spec(self) -> TopologySpec:
        r = self.config.ring_size
        aps_needed = self.config.num_aps
        num_br = max(1, math.ceil(aps_needed / (r * r)))
        return TopologySpec(
            num_border_routers=num_br,
            ags_per_br=r,
            aps_per_ag=r,
            hosts_per_ap=0,  # hosts are attached through join_member below
        )

    def build(self) -> "RGBSimulation":
        """Generate topology, assemble the hierarchy and start the protocol."""
        spec = self._topology_spec()
        self.topology = TopologyGenerator(spec, self.streams).generate()
        arch = self.topology.architecture

        participating = sorted(arch.access_proxies)[: self.config.num_aps]
        self.hierarchy = self._build_hierarchy(participating)
        self.partition_manager = PartitionManager(self.hierarchy)

        if self.config.engine_mode == "event":
            harness = ScenarioHarness(
                HarnessConfig(
                    ring_size=self.config.ring_size,
                    height=self.hierarchy.height,
                    seed=self.config.seed,
                    protocol=self.config.protocol,
                    trace_enabled=self.config.trace_enabled,
                ),
                hierarchy=self.hierarchy,
            )
            self.harness = harness
            self.engine = harness.engine
            self.metrics = harness.metrics
            self.trace = harness.trace
            self.event_bus = harness.event_bus
            self.transport = harness.transport
            self.faults = harness.faults
            self.protocol = harness.kernel
            self._kernel = harness.kernel
            self._handoff_manager = HandoffManager(
                harness.kernel,
                capture=lambda guid, _old, new, _now: harness.capture_handoff(
                    str(guid), str(new)
                ),
            )
        else:
            engine = OneRoundEngine(
                hierarchy=self.hierarchy,
                config=self.config.protocol,
                metrics=self.metrics,
                event_bus=self.event_bus,
                trace=self.trace,
            )
            self.protocol = engine
            self._kernel = engine.kernel
            self._handoff_manager = HandoffManager(engine)
        self._built = True

        # Pre-attach the configured number of hosts per access proxy.
        if self.config.hosts_per_ap > 0:
            for ap in self.access_proxies():
                for _ in range(self.config.hosts_per_ap):
                    self.join_member(ap_id=ap)
            self.run_until_quiescent()
        return self

    def _build_hierarchy(self, participating_aps: List[str]) -> RingHierarchy:
        """Rings over exactly the participating access proxies."""
        assert self.topology is not None
        arch = self.topology.architecture
        hierarchy = RingHierarchy(group=GroupId(self.config.group_id))
        hierarchy.tier_labels.update(
            {1: "Access Proxy Tier (APT)", 2: "Access Gateway Tier (AGT)", 3: "Border Router Tier (BRT)"}
        )
        participating = set(participating_aps)

        aps_by_ag: Dict[str, List[str]] = {}
        for ap in sorted(participating):
            aps_by_ag.setdefault(arch.ap_parent[ap], []).append(ap)
        involved_ags = sorted(aps_by_ag)
        ags_by_br: Dict[str, List[str]] = {}
        for ag in involved_ags:
            ags_by_br.setdefault(arch.ag_parent[ag], []).append(ag)
        involved_brs = sorted(ags_by_br)

        br_ring = LogicalRing(ring_id="brt-ring", tier=3, members=[NodeId(b) for b in involved_brs])
        br_ring.elect_leader()
        hierarchy.add_ring(br_ring)
        for br in involved_brs:
            ag_ring = LogicalRing(
                ring_id=f"agt-ring-{br}",
                tier=2,
                members=[NodeId(a) for a in ags_by_br[br]],
            )
            ag_ring.elect_leader()
            hierarchy.add_ring(ag_ring, parent=NodeId(br))
        for ag in involved_ags:
            ap_ring = LogicalRing(
                ring_id=f"apt-ring-{ag}",
                tier=1,
                members=[NodeId(a) for a in aps_by_ag[ag]],
            )
            ap_ring.elect_leader()
            hierarchy.add_ring(ap_ring, parent=NodeId(ag))

        hierarchy.validate()
        return hierarchy

    def _require_built(self) -> None:
        if not self._built or self.protocol is None or self.hierarchy is None:
            raise SimulationNotBuilt("call RGBSimulation.build() before using the simulation")

    # ------------------------------------------------------------------
    # structural information
    # ------------------------------------------------------------------

    @property
    def kernel(self) -> TokenRoundKernel:
        """The shared token-round kernel behind whichever engine is active."""
        self._require_built()
        return self._kernel

    def access_proxies(self) -> List[str]:
        self._require_built()
        assert self.hierarchy is not None
        return [str(n) for n in self.hierarchy.access_proxies()]

    def ring_of(self, node_id: str) -> LogicalRing:
        self._require_built()
        assert self.hierarchy is not None
        return self.hierarchy.ring_of(node_id)

    @property
    def now(self) -> float:
        if self.harness is not None:
            return self.engine.now
        return self._now

    # ------------------------------------------------------------------
    # membership operations
    # ------------------------------------------------------------------

    def _pick_ap(self, ap_index: Optional[int], ap_id: Optional[str]) -> NodeId:
        aps = self.access_proxies()
        if ap_id is not None:
            if ap_id not in aps:
                raise ValueError(f"{ap_id!r} is not a participating access proxy")
            return coerce_node(ap_id)
        index = 0 if ap_index is None else ap_index
        if not 0 <= index < len(aps):
            raise ValueError(f"ap_index {index} out of range (have {len(aps)} proxies)")
        return coerce_node(aps[index])

    def join_member(
        self,
        ap_index: Optional[int] = None,
        ap_id: Optional[str] = None,
        guid: Optional[str] = None,
    ) -> Optional[MemberInfo]:
        """Join a new mobile host at an access proxy; returns its member record.

        In event mode a join at a crashed proxy is skipped (counted as
        ``harness.captures_skipped``) and returns None; the structural engine
        raises :class:`repro.core.kernel.ProtocolError` instead.
        """
        self._require_built()
        ap = self._pick_ap(ap_index, ap_id)
        if guid is None:
            guid = f"member-{self._member_counter:06d}"
            self._member_counter += 1
        if self.harness is not None:
            member = self.harness.capture_join(str(ap), guid)
        else:
            member = self.protocol.member_join(ap, guid, now=self._now).member
        if member is not None:
            self._member_location[str(member.guid)] = ap
        return member

    def join_members(
        self,
        count: int,
        ap_ids: Optional[List[str]] = None,
        guid_prefix: str = "member",
    ) -> List[Optional[MemberInfo]]:
        """Capture ``count`` joins before a single propagation (batched path).

        The joins are spread round-robin over ``ap_ids`` (all participating
        proxies by default) and left in the access proxies' message queues, so
        one :meth:`run_until_quiescent` call aggregates them into shared token
        rounds instead of propagating each join individually.
        """
        self._require_built()
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        aps = ap_ids if ap_ids is not None else self.access_proxies()
        if not aps:
            raise ValueError("no access proxies to join at")
        members: List[Optional[MemberInfo]] = []
        for index in range(count):
            guid = f"{guid_prefix}-{self._member_counter:06d}"
            self._member_counter += 1
            members.append(self.join_member(ap_id=aps[index % len(aps)], guid=guid))
        return members

    def leave_member(self, guid: str) -> None:
        """The named member voluntarily leaves the group."""
        self._require_built()
        ap = self._member_location.get(str(coerce_guid(guid)))
        if ap is None:
            raise ValueError(f"unknown member {guid!r}")
        if self.harness is not None:
            self.harness.capture_leave(str(coerce_guid(guid)))
        else:
            self.protocol.member_leave(ap, guid, now=self._now)
        self._member_location.pop(str(coerce_guid(guid)), None)

    def fail_member(self, guid: str) -> None:
        """The named member is detected faulty by its access proxy."""
        self._require_built()
        ap = self._member_location.get(str(coerce_guid(guid)))
        if ap is None:
            raise ValueError(f"unknown member {guid!r}")
        if self.harness is not None:
            self.harness.capture_member_failure(str(coerce_guid(guid)))
        else:
            self.protocol.member_failure(ap, guid, now=self._now)
        self._member_location.pop(str(coerce_guid(guid)), None)

    def handoff_member(self, guid: str, to_ap: str) -> HandoffRecord:
        """Move the named member to another access proxy."""
        self._require_built()
        key = str(coerce_guid(guid))
        old_ap = self._member_location.get(key)
        if old_ap is None:
            raise ValueError(f"unknown member {guid!r}")
        assert self._handoff_manager is not None
        record = self._handoff_manager.handoff(guid, old_ap, to_ap, now=self.now)
        self._member_location[key] = coerce_node(to_ap)
        return record

    def crash_entity(self, node_id: str) -> None:
        """Crash a network entity (access proxy, gateway or border router).

        In event mode the harness's fault injector applies the crash now and
        a probe token round in the victim's ring detects and repairs it.
        """
        self._require_built()
        if self.harness is not None:
            self.harness.faults.inject_now(
                FaultEvent(time=self.engine.now, kind=FaultKind.CRASH, target=node_id)
            )
        else:
            self.protocol.fail_entity(node_id, now=self._now)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run_until_quiescent(self, max_time: Optional[float] = None) -> Union[PropagationReport, int]:
        """Propagate all pending membership changes.

        Returns the :class:`PropagationReport` (structural mode) or the number
        of events dispatched by this call (event mode, which runs the harness
        until quiescence or ``max_time``).
        """
        self._require_built()
        if self.harness is not None:
            before = self.engine.dispatched_events
            self.harness.run(until=max_time)
            return self.engine.dispatched_events - before
        report = self.protocol.propagate(now=self._now)
        self._now += 1.0
        return report

    def apply_mobility_trace(self, trace: MobilityTrace) -> Dict[str, int]:
        """Replay a mobility trace as join / handoff / leave operations."""
        self._require_built()
        counts = {"joins": 0, "handoffs": 0, "leaves": 0, "skipped": 0}
        for event in trace.all_events():
            if isinstance(event, AttachmentEvent):
                if event.attach:
                    self.join_member(ap_id=self._nearest_participating(event.ap_id), guid=event.host_id)
                    counts["joins"] += 1
                else:
                    try:
                        self.leave_member(event.host_id)
                        counts["leaves"] += 1
                    except ValueError:
                        counts["skipped"] += 1
            elif isinstance(event, HandoffEvent):
                try:
                    self.handoff_member(event.host_id, self._nearest_participating(event.to_ap))
                    counts["handoffs"] += 1
                except ValueError:
                    counts["skipped"] += 1
            self.run_until_quiescent()
        return counts

    def _nearest_participating(self, ap_id: str) -> str:
        aps = self.access_proxies()
        if ap_id in aps:
            return ap_id
        # Deterministic fallback: hash the requested id onto a participating proxy.
        return aps[hash(ap_id) % len(aps)]

    def default_mobility_model(
        self, mean_residency: float = 200.0, mean_session: float = 2000.0
    ) -> MobilityModel:
        """A mobility model over the participating proxies with ring neighbourhoods."""
        self._require_built()
        assert self.hierarchy is not None
        neighbor_map = {}
        for ap in self.access_proxies():
            ring = self.hierarchy.ring_of(ap)
            neighbor_map[ap] = [str(n) for n in ring.members if str(n) != ap]
        return MobilityModel(
            ap_ids=self.access_proxies(),
            streams=self.streams,
            neighbor_map=neighbor_map,
            mean_residency=mean_residency,
            mean_session=mean_session,
        )

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def global_membership(self) -> MembershipView:
        """The global membership view maintained at the topmost ring leader."""
        self._require_built()
        assert self.protocol is not None and self.hierarchy is not None
        leader = self.hierarchy.topmost_ring().leader
        assert leader is not None
        return self.protocol.entity(leader).ring_members.copy("global")

    def membership_events(self) -> List[MembershipEvent]:
        """Events observed at the topmost ring leader (the canonical stream)."""
        self._require_built()
        assert self.hierarchy is not None
        leader = self.hierarchy.topmost_ring().leader
        return [e for e in self.event_bus.history if e.observer == leader]

    def query(self, scheme: MembershipScheme = MembershipScheme.TMS) -> QueryResult:
        """Run a membership query under the given maintenance scheme."""
        self._require_built()
        assert self.protocol is not None
        service = MembershipQueryService(self.protocol)
        return service.query(scheme)

    def handoff_statistics(self) -> Dict[str, float]:
        self._require_built()
        assert self._handoff_manager is not None
        return self._handoff_manager.summary()

    def partition_report(self) -> PartitionReport:
        """Assess the current partitioning of the hierarchy."""
        self._require_built()
        assert self.partition_manager is not None
        if self.harness is not None:
            operational = self.harness.operational_entities()
        else:
            operational = self.protocol.operational_entities()
        return self.partition_manager.assess(operational, now=self.now)

    def metric_snapshot(self) -> Dict[str, object]:
        return self.metrics.snapshot()
