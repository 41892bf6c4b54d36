"""Integration tests: end-to-end scenarios spanning all subsystems."""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig, SimulationConfig
from repro.core.query import MembershipScheme
from repro.core.simulation import RGBSimulation
from repro.workloads.scenarios import run_churn_scenario, run_conferencing_scenario


class TestPackagedScenarios:
    def test_churn_scenario_tracks_population(self):
        result = run_churn_scenario(num_aps=9, ring_size=3, horizon=120.0, join_rate=0.4, seed=2)
        assert result.name == "churn"
        assert result.final_membership == result.details["expected_membership"]
        assert result.events_processed == result.details["workload"]["total"]

    def test_churn_scenario_deterministic(self):
        a = run_churn_scenario(num_aps=9, ring_size=3, horizon=80.0, seed=5)
        b = run_churn_scenario(num_aps=9, ring_size=3, horizon=80.0, seed=5)
        assert a.final_membership == b.final_membership
        assert a.events_processed == b.events_processed

    def test_conferencing_scenario_keeps_roster_intact(self):
        result = run_conferencing_scenario(
            num_aps=12, ring_size=4, participants=15, handoffs=25, locality=0.9, seed=4
        )
        assert result.final_membership == 15
        stats = result.details["handoff_stats"]
        assert stats["handoffs"] == 25
        # High-locality storms mostly hit the neighbour-list fast path.
        assert stats["fast_path_ratio"] > 0.5
        assert set(result.details["query_hops"]) == {s.value for s in MembershipScheme}


class TestEngineEquivalence:
    """The structural and message-passing engines agree on membership outcomes."""

    def _run(self, mode: str):
        sim = RGBSimulation(
            SimulationConfig(
                num_aps=9,
                ring_size=3,
                hosts_per_ap=0,
                seed=6,
                engine_mode=mode,
                protocol=ProtocolConfig(aggregation_delay=1.0),
            )
        ).build()
        aps = sim.access_proxies()
        sim.join_member(ap_id=aps[0], guid="alice")
        sim.join_member(ap_id=aps[4], guid="bob")
        sim.join_member(ap_id=aps[8], guid="carol")
        sim.run_until_quiescent()
        sim.handoff_member("alice", aps[5])
        sim.run_until_quiescent()
        sim.leave_member("bob")
        sim.run_until_quiescent()
        return sim

    def test_same_final_membership(self):
        structural = self._run("structural")
        event = self._run("event")
        assert structural.global_membership().guids() == event.global_membership().guids()

    def test_fig3_single_join_costs_match(self):
        """Fig. 3 single join (25 proxies, r=5): both drivers count the same work."""
        names = ("rounds.completed", "hops.token", "hops.notify", "hops.ack")
        counts = []
        for mode in ("structural", "event"):
            sim = RGBSimulation(
                SimulationConfig(num_aps=25, ring_size=5, hosts_per_ap=0, engine_mode=mode)
            ).build()
            sim.join_member(ap_index=0, guid="alice")
            sim.run_until_quiescent()
            assert "alice" in sim.global_membership()
            counts.append({name: sim.metrics.counter(name).value for name in names})
        structural, event = counts
        assert structural == event
        assert structural["rounds.completed"] > 0

    def test_same_member_location_after_handoff(self):
        structural = self._run("structural")
        event = self._run("event")
        for sim in (structural, event):
            record = sim.global_membership().get("alice")
            assert record is not None
            assert str(record.ap) == sim.access_proxies()[5]


class TestCrashRecoveryEndToEnd:
    def test_structural_gateway_crash_keeps_service_running(self):
        sim = RGBSimulation(
            SimulationConfig(num_aps=16, ring_size=4, hosts_per_ap=1, seed=8)
        ).build()
        before = len(sim.global_membership())
        # Crash an access gateway (a middle-tier entity with child rings).
        gateway = str(sim.hierarchy.rings_in_tier(2)[0].members[0])
        sim.crash_entity(gateway)
        sim.join_member(ap_index=0, guid="after-crash")
        sim.run_until_quiescent()
        assert "after-crash" in sim.global_membership()
        assert len(sim.global_membership()) == before + 1
        assert sim.partition_report().count == 1

    def test_event_mode_survives_multiple_ap_crashes(self):
        sim = RGBSimulation(
            SimulationConfig(
                num_aps=12,
                ring_size=4,
                hosts_per_ap=0,
                seed=9,
                engine_mode="event",
                protocol=ProtocolConfig(aggregation_delay=1.0),
            )
        ).build()
        aps = sim.access_proxies()
        members = {}
        for i, ap in enumerate(aps):
            members[f"m{i}"] = ap
            sim.join_member(ap_id=ap, guid=f"m{i}")
        sim.run_until_quiescent()
        assert len(sim.global_membership()) == len(aps)

        # Crash one AP in each of two different rings.
        rings = {ap: sim.ring_of(ap).ring_id for ap in aps}
        distinct_rings = []
        victims = []
        for ap in aps:
            if rings[ap] not in distinct_rings:
                distinct_rings.append(rings[ap])
                victims.append(ap)
            if len(victims) == 2:
                break
        for victim in victims:
            sim.crash_entity(victim)
        # Fresh traffic in the affected rings triggers detection and repair.
        for victim in victims:
            survivor = next(str(n) for n in sim.ring_of(victim).members if str(n) not in victims)
            sim.join_member(ap_id=survivor, guid=f"trigger-{victim}")
        sim.run_until_quiescent()

        view = sim.global_membership()
        for member, ap in members.items():
            if ap in victims:
                assert member not in view
            else:
                assert member in view
        assert sim.partition_report().count == 1



class TestWireEncoding:
    """Members and token operations round-trip through the runtime wire codec."""

    @staticmethod
    def _round_trip(value):
        from repro.runtime.wire import MSG_NOTIFY, WireCodec

        data = WireCodec(shard_id=0).encode(MSG_NOTIFY, {"ops": (value,)}, dest_key=1)
        (decoded,) = WireCodec.decode(data).payload["ops"]
        return decoded

    def test_member_round_trip(self):
        from tests.test_core_datastructures import make_member

        member = make_member("alice", ap="ap-7")
        assert self._round_trip(member) == member

    def test_operation_round_trip(self):
        from tests.test_core_datastructures import make_member
        from repro.core.identifiers import NodeId
        from repro.core.token import TokenOperation, TokenOperationType

        op = TokenOperation(
            op_type=TokenOperationType.MEMBER_HANDOFF,
            origin=NodeId("ap-2"),
            member=make_member("alice", ap="ap-2"),
            previous_ap=NodeId("ap-1"),
            sequence=42,
        )
        assert self._round_trip(op) == op

    def test_ne_operation_round_trip(self):
        from repro.core.identifiers import NodeId
        from repro.core.token import TokenOperation, TokenOperationType

        op = TokenOperation(
            op_type=TokenOperationType.NE_FAILURE,
            origin=NodeId("ap-3"),
            entity=NodeId("ap-9"),
            sequence=7,
        )
        assert self._round_trip(op) == op
