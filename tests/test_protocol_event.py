"""Tests for the facade's event mode (kernel rounds over the transport)."""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig, SimulationConfig
from repro.core.kernel import ProtocolError
from repro.core.simulation import RGBSimulation


def build_event_sim(num_aps=12, ring_size=4, seed=3, **protocol_kwargs) -> RGBSimulation:
    protocol_kwargs.setdefault("aggregation_delay", 1.0)
    protocol = ProtocolConfig(**protocol_kwargs)
    return RGBSimulation(
        SimulationConfig(
            num_aps=num_aps,
            ring_size=ring_size,
            hosts_per_ap=0,
            seed=seed,
            engine_mode="event",
            protocol=protocol,
        )
    ).build()


class TestEventJoinLeave:
    def test_single_join_reaches_top_leader(self, event_sim):
        member = event_sim.join_member(ap_index=0)
        event_sim.run_until_quiescent()
        assert member.guid in event_sim.global_membership()

    def test_multiple_joins_from_different_rings(self, event_sim):
        members = [event_sim.join_member(ap_index=i) for i in (0, 5, 11)]
        event_sim.run_until_quiescent()
        view = event_sim.global_membership()
        assert all(m.guid in view for m in members)
        assert len(view) == 3

    def test_leave_removes_member(self, event_sim):
        member = event_sim.join_member(ap_index=0, guid="alice")
        event_sim.run_until_quiescent()
        event_sim.leave_member("alice")
        event_sim.run_until_quiescent()
        assert "alice" not in event_sim.global_membership()

    def test_join_uses_real_messages(self, event_sim):
        event_sim.join_member(ap_index=0)
        event_sim.run_until_quiescent()
        assert event_sim.metrics.counter("transport.sent").value > 0
        assert event_sim.metrics.counter("rounds.completed").value >= 1
        assert event_sim.engine.now > 0.0

    def test_views_consistent_across_ring_members(self, event_sim):
        event_sim.join_member(ap_index=2, guid="alice")
        event_sim.run_until_quiescent()
        ring = event_sim.ring_of(event_sim.access_proxies()[2])
        views = [
            event_sim.protocol.entity(str(node)).ring_members.snapshot() for node in ring.members
        ]
        assert len(set(views)) == 1

    def test_handoff_over_messages(self, event_sim):
        aps = event_sim.access_proxies()
        event_sim.join_member(ap_id=aps[0], guid="alice")
        event_sim.run_until_quiescent()
        event_sim.handoff_member("alice", aps[6])
        event_sim.run_until_quiescent()
        record = event_sim.protocol.entity(aps[6]).local_members.get("alice")
        assert record is not None
        assert event_sim.protocol.entity(aps[0]).local_members.get("alice") is None


class TestEventFailureDetection:
    def test_crashed_ap_detected_and_members_removed(self):
        sim = build_event_sim()
        aps = sim.access_proxies()
        ring = sim.ring_of(aps[0])
        victim = str(ring.members[1])
        survivor = str(ring.members[0])
        sim.join_member(ap_id=victim, guid="victim-member")
        sim.run_until_quiescent()
        sim.crash_entity(victim)
        sim.join_member(ap_id=survivor, guid="trigger")
        sim.run_until_quiescent()
        view = sim.global_membership()
        assert "victim-member" not in view
        assert "trigger" in view
        assert victim not in [str(n) for n in sim.ring_of(survivor).members]

    def test_crashed_leader_excluded_via_signal_fallback(self):
        sim = build_event_sim()
        aps = sim.access_proxies()
        ring = sim.ring_of(aps[0])
        leader = str(ring.leader)
        survivor = next(str(n) for n in ring.members if str(n) != leader)
        sim.crash_entity(leader)
        sim.join_member(ap_id=survivor, guid="bob")
        sim.run_until_quiescent()
        assert "bob" in sim.global_membership()
        new_leader = sim.ring_of(survivor).leader
        assert new_leader is not None and str(new_leader) != leader

    def test_crashed_node_stops_participating(self):
        sim = build_event_sim()
        aps = sim.access_proxies()
        sim.crash_entity(aps[0])
        # A join at a crashed proxy is skipped, and the skip is counted.
        assert sim.join_member(ap_id=aps[0], guid="ghost") is None
        sim.run_until_quiescent()
        assert "ghost" not in sim.global_membership()
        assert sim.metrics.counter("harness.captures_skipped").value == 1

    def test_handoff_to_crashed_proxy_is_refused(self):
        sim = build_event_sim()
        aps = sim.access_proxies()
        sim.join_member(ap_id=aps[0], guid="alice")
        sim.run_until_quiescent()
        sim.crash_entity(aps[6])
        sim.run_until_quiescent()
        with pytest.raises(ProtocolError, match="not captured"):
            sim.handoff_member("alice", aps[6])
        assert sim.handoff_statistics()["handoffs"] == 0
        # The member stays where it was, so its leave still lands.
        sim.leave_member("alice")
        sim.run_until_quiescent()
        assert "alice" not in sim.global_membership()

    def test_heartbeat_rounds_detect_idle_ring_failures(self):
        sim = build_event_sim()
        aps = sim.access_proxies()
        sim.join_member(ap_id=aps[0], guid="alice")
        sim.run_until_quiescent()
        ring = sim.ring_of(aps[0])
        victim = next(str(n) for n in ring.members if n != ring.leader)
        sim.crash_entity(victim)
        # No new membership traffic: only the probe round can notice the crash.
        sim.run_until_quiescent()
        assert victim not in [str(n) for n in sim.ring_of(aps[0]).members]
        assert sim.metrics.counter("repairs.ring").value == 1

    def test_token_retransmissions_counted_on_timeout(self):
        sim = build_event_sim()
        aps = sim.access_proxies()
        ring = sim.ring_of(aps[0])
        holder = str(ring.leader)
        victim = str(ring.successor(ring.leader))
        sim.join_member(ap_id=holder, guid="alice")
        sim.crash_entity(victim)
        sim.run_until_quiescent()
        # The holder's token to its dead successor is dropped at the victim.
        assert sim.metrics.counter("transport.dropped.destination-failed").value >= 1
        assert sim.metrics.counter("repairs.ring").value >= 1
        assert "alice" in sim.global_membership()


class TestEventConfigurationVariants:
    def test_without_downward_dissemination(self):
        sim = build_event_sim(disseminate_downward=False)
        sim.join_member(ap_index=0, guid="alice")
        sim.run_until_quiescent()
        assert "alice" in sim.global_membership()
        # Upward notifications only: one per tier boundary, none downward.
        assert sim.metrics.counter("hops.notify").value == sim.hierarchy.height - 1

    def test_without_holder_acks(self):
        sim = build_event_sim(holder_ack_enabled=False)
        sim.join_member(ap_index=0, guid="alice")
        sim.run_until_quiescent()
        assert sim.metrics.counter("hops.ack").value == 0
        assert sim.metrics.counter("transport.sent.rgb.holder-ack").value == 0
        assert "alice" in sim.global_membership()

    def test_aggregation_reduces_rounds_for_bursts(self):
        aggregated = build_event_sim()
        flat = build_event_sim(aggregate_mq=False, aggregation_delay=0.0)
        for sim in (aggregated, flat):
            ap = sim.access_proxies()[0]
            for i in range(6):
                sim.join_member(ap_id=ap, guid=f"m{i}")
            sim.run_until_quiescent()
            assert len(sim.global_membership()) == 6
        agg_rounds = aggregated.metrics.counter("rounds.completed").value
        flat_rounds = flat.metrics.counter("rounds.completed").value
        assert agg_rounds <= flat_rounds

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            sim = build_event_sim(seed=9)
            sim.join_member(ap_index=0, guid="alice")
            sim.join_member(ap_index=7, guid="bob")
            sim.run_until_quiescent()
            results.append(
                (
                    sim.engine.dispatched_events,
                    sim.metrics.counter("hops.token").value,
                    tuple(sim.global_membership().guids()),
                )
            )
        assert results[0] == results[1]
