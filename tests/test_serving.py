"""Serving-layer tests: snapshot consistency, routing memoisation, load gen.

The contract under test (see ``docs/ARCHITECTURE.md``):

* a batched snapshot read during in-flight rounds equals a stop-the-world
  object-path read at the same instant — for all three schemes, both kernel
  backends, and at every round-commit point (no torn reads);
* results already served from a frame are immutable — later rounds never
  reach into them;
* query routing (entry tier, per-tier leader fan-out, topmost leader) is
  memoised per topology epoch and re-derived after repair surgery.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ProtocolConfig
from repro.core.hierarchy import HierarchyBuilder
from repro.core.one_round import OneRoundEngine
from repro.core.query import MembershipQueryService, MembershipScheme
from repro.serving.columnar_query import tier_leader_fanout
from repro.sim.harness import HarnessConfig, ScenarioHarness
from repro.workloads.query_load import (
    QueryLoadConfig,
    QueryLoadGenerator,
    run_query_load,
)

SCHEMES = tuple(MembershipScheme)


def _harness(ring_size: int, height: int, backend: str) -> ScenarioHarness:
    return ScenarioHarness(
        HarnessConfig(ring_size=ring_size, height=height, backend=backend)
    )


def _assert_same_answer(got, want) -> None:
    assert got.scheme is want.scheme
    assert got.guids == want.guids
    assert got.members == want.members
    assert got.message_hops == want.message_hops
    assert got.entities_contacted == want.entities_contacted
    assert got.answered_by_tier == want.answered_by_tier


class TestSnapshotEqualsObjectPath:
    """The hypothesis pin: snapshot batch read == stop-the-world object read."""

    @given(
        ring_size=st.integers(min_value=2, max_value=3),
        height=st.integers(min_value=2, max_value=3),
        backend=st.sampled_from(("object", "columnar")),
        joins=st.integers(min_value=1, max_value=6),
        run_fraction=st.sampled_from((0.3, 0.7, 1.0)),
    )
    @settings(max_examples=10, deadline=None)
    def test_batch_read_matches_object_path_mid_flight(
        self, ring_size, height, backend, joins, run_fraction
    ):
        harness = _harness(ring_size, height, backend)
        aps = harness.access_proxies()
        horizon = 0.2 * joins
        for index in range(joins):
            harness.schedule_join(0.2 * (index + 1), aps[index % len(aps)])
        if joins > 2:
            harness.schedule_leave(horizon + 0.2, "member-0001")
        # Stop mid-horizon: captured operations and scheduled rounds are
        # still in flight — exactly when torn reads would happen.
        harness.run(until=horizon * run_fraction)

        frontend = harness.serving_frontend()
        service = MembershipQueryService(harness.kernel, entry_point=aps[0])
        for scheme in SCHEMES:
            frontend.submit(scheme, aps[0])
        batch = frontend.drain()
        for scheme, got in zip(SCHEMES, batch):
            _assert_same_answer(got, service.query(scheme))

        # Quiesce and compare again: the frames must revalidate/recapture.
        harness.run()
        for scheme in SCHEMES:
            _assert_same_answer(
                frontend.query(scheme, aps[0]), service.query(scheme)
            )

    @pytest.mark.parametrize("backend", ("object", "columnar"))
    def test_every_round_commit_point_matches_object_path(self, backend):
        """No torn reads: probe at every commit, the only mutation points."""
        harness = _harness(3, 2, backend)
        aps = harness.access_proxies()
        service = MembershipQueryService(harness.kernel, entry_point=aps[0])
        frontend = harness.serving_frontend()
        probes = []

        def probe(ring_id: str, now: float) -> None:
            for scheme in SCHEMES:
                got = frontend.query(scheme, aps[0])
                want = service.query(scheme)
                probes.append(
                    (now, scheme.name, got.guids == want.guids,
                     got.message_hops == want.message_hops)
                )

        harness.add_round_listener(probe)
        for index in range(5):
            harness.schedule_join(0.3 * (index + 1), aps[index % len(aps)])
        harness.schedule_leave(2.0, "member-0001")
        harness.schedule_failure(2.5, "member-0002")
        harness.run()
        assert probes, "no rounds committed — the probe never ran"
        bad = [p for p in probes if not (p[2] and p[3])]
        assert not bad, f"snapshot read diverged from object path at: {bad[:3]}"


class TestTornReadRegression:
    def test_served_results_are_frozen_pre_round_frames(self):
        harness = _harness(3, 2, "columnar")
        aps = harness.access_proxies()
        harness.schedule_join(0.1, aps[0], guid="alice")
        harness.schedule_join(0.2, aps[1], guid="bob")
        harness.run()
        frontend = harness.serving_frontend()
        before = frontend.query(MembershipScheme.BMS)
        assert before.guids == ["alice", "bob"]

        # A later round commits carol; the already-served result must keep
        # showing the pre-round frame, never a mix.
        harness.schedule_join(harness.engine.now + 0.1, aps[2], guid="carol")
        harness.run()
        assert before.guids == ["alice", "bob"]
        assert sorted(m.guid.value for m in before.members) == ["alice", "bob"]

        # A fresh read sees the whole post-round frame and matches the
        # object path; the stale frame was counted as an invalidation.
        after = frontend.query(MembershipScheme.BMS)
        want = MembershipQueryService(harness.kernel).query(MembershipScheme.BMS)
        _assert_same_answer(after, want)
        assert after.guids == ["alice", "bob", "carol"]
        assert frontend.stats()["invalidations"] >= 1

    def test_snapshot_reuse_across_batches_until_a_round_commits(self):
        harness = _harness(3, 2, "columnar")
        aps = harness.access_proxies()
        harness.schedule_join(0.1, aps[0], guid="alice")
        harness.run()
        frontend = harness.serving_frontend()
        for _ in range(3):
            for scheme in SCHEMES:
                frontend.submit(scheme)
            frontend.drain()
        stats = frontend.stats()
        # One capture per distinct frame; every later batch reuses them
        # without any version reads (no rounds committed in between).
        assert stats["captures"] <= len(SCHEMES)
        assert stats["hits"] >= 2 * len(SCHEMES)
        assert stats["invalidations"] == 0


class TestRoutingMemoisation:
    def _engine(self, ring_size=3, height=2) -> OneRoundEngine:
        hierarchy = HierarchyBuilder("serving-test").regular(
            ring_size=ring_size, height=height
        )
        return OneRoundEngine(hierarchy, config=ProtocolConfig(aggregation_delay=0.0))

    def test_tier_leaders_cached_per_epoch(self):
        engine = self._engine()
        service = MembershipQueryService(engine)
        bottom = engine.hierarchy.bottom_tier()
        first = service.tier_leaders(bottom)
        assert service.tier_leaders(bottom) is first  # memo hit, same epoch

    def test_repaired_ring_is_rerouted(self):
        """Satellite regression: a repair must invalidate the routing memo."""
        engine = self._engine()
        ring = engine.hierarchy.bottom_rings()[0]
        leader = ring.leader
        survivor = next(m for m in ring.members if m != leader)
        # Entry at a survivor: the failed leader leaves the hierarchy, and a
        # dead entry point raises on the object path and serving path alike.
        service = MembershipQueryService(engine, entry_point=survivor)
        engine.member_join(survivor, "bob")
        engine.propagate()
        before = service.query(MembershipScheme.BMS)
        assert leader in before.entities_contacted  # memo is warm

        engine.fail_entity(leader)
        engine.member_join(survivor, "carol")
        engine.propagate()  # repair surgery re-elects the ring leader
        assert ring.leader is not None and ring.leader != leader

        after = service.query(MembershipScheme.BMS)
        assert leader not in after.entities_contacted
        assert ring.leader in after.entities_contacted
        # A cold service (no memo to go stale) agrees exactly.
        _assert_same_answer(
            after,
            MembershipQueryService(engine, entry_point=survivor).query(MembershipScheme.BMS),
        )

    def test_frontend_reroutes_after_repair(self):
        engine = self._engine()
        frontend_engine = engine  # OneRoundEngine: kernel + hierarchy, no listener
        from repro.serving.frontend import ServingFrontend

        frontend = ServingFrontend(frontend_engine)
        ring = engine.hierarchy.bottom_rings()[0]
        leader = ring.leader
        survivor = next(m for m in ring.members if m != leader)
        engine.member_join(survivor, "bob")
        engine.propagate()
        assert leader in frontend.query(
            MembershipScheme.BMS, survivor
        ).entities_contacted

        engine.fail_entity(leader)
        engine.member_join(survivor, "carol")
        engine.propagate()
        after = frontend.query(MembershipScheme.BMS, survivor)
        assert leader not in after.entities_contacted
        assert ring.leader in after.entities_contacted
        _assert_same_answer(
            after,
            MembershipQueryService(engine, entry_point=survivor).query(MembershipScheme.BMS),
        )


class TestColumnarFanout:
    def test_columnar_fanout_matches_hierarchy_walk(self):
        harness = _harness(3, 3, "columnar")
        aps = harness.access_proxies()
        for index in range(4):
            harness.schedule_join(0.2 * (index + 1), aps[index % len(aps)])
        harness.run()
        kernel, hierarchy = harness.kernel, harness.hierarchy
        for tier in hierarchy.tiers():
            leaders, rings, views = tier_leader_fanout(kernel, hierarchy, tier)
            want = [
                ring.leader
                for ring in hierarchy.rings_in_tier(tier)
                if ring.leader is not None
            ]
            assert leaders == want
            assert [r.ring_id for r in rings] == [
                ring.ring_id
                for ring in hierarchy.rings_in_tier(tier)
                if ring.leader is not None
            ]
            for leader, view in zip(leaders, views):
                assert view is kernel.entity(leader).ring_members

    def test_dirty_structure_falls_back_to_object_walk(self):
        harness = _harness(3, 2, "columnar")
        aps = harness.access_proxies()
        harness.schedule_join(0.1, aps[0], guid="alice")
        harness.run()
        # Surgery: fail a leader and let repair re-shape the hierarchy.
        ring = harness.hierarchy.bottom_rings()[0]
        victim = ring.leader
        harness.kernel.fail_entity(victim, now=harness.engine.now)
        harness.kernel.detect_and_repair(victim, now=harness.engine.now)
        kernel, hierarchy = harness.kernel, harness.hierarchy
        # The repaired ring's tier no longer trusts the build-time leader
        # column and derives the fan-out from the hierarchy.
        tier = hierarchy.bottom_tier()
        assert kernel.tier_leader_views(tier) is None
        leaders, _rings, _views = tier_leader_fanout(kernel, hierarchy, tier)
        assert leaders == [
            r.leader for r in hierarchy.rings_in_tier(tier) if r.leader is not None
        ]
        # The repair is local: the other tier keeps the columnar sweep.
        top = hierarchy.topmost_ring().tier
        assert top != tier
        assert kernel.tier_leader_views(top) is not None
        leaders, _rings, views = tier_leader_fanout(kernel, hierarchy, top)
        want = [r.leader for r in hierarchy.rings_in_tier(top) if r.leader is not None]
        assert leaders == want
        for leader, view in zip(leaders, views):
            assert view is kernel.entity(leader).ring_members


class TestQueryResultCaching:
    def test_guids_cached_and_len_fast_path(self):
        engine = OneRoundEngine(
            HierarchyBuilder("serving-test").regular(ring_size=3, height=2),
            config=ProtocolConfig(aggregation_delay=0.0),
        )
        ap = engine.hierarchy.access_proxies()[0]
        engine.member_join(ap, "alice")
        engine.propagate()
        result = MembershipQueryService(engine).query(MembershipScheme.TMS)
        assert result.guids == ["alice"]
        assert result.guids is result.guids  # computed once, cached
        assert result.member_count == len(result) == len(result.members) == 1


class TestQueryLoad:
    @pytest.mark.parametrize("mode", ("batched", "object"))
    def test_load_generator_runs_interleaved(self, mode):
        harness = _harness(3, 2, "columnar" if mode == "batched" else "object")
        aps = harness.access_proxies()
        for index in range(4):
            harness.schedule_join(0.3 * (index + 1), aps[index % len(aps)])
        config = QueryLoadConfig(batch_size=6, batches=3, interval=1.0, mode=mode, seed=1)
        result = run_query_load(harness, config)
        assert result["mode"] == mode
        assert result["batches"] == 3
        assert result["total_queries"] == 18
        assert result["overall_qps"] > 0
        for stats in result["schemes"].values():
            assert stats["queries"] == 6
            assert stats["p99_ms"] >= stats["p50_ms"] >= 0
        if mode == "batched":
            assert result["snapshots"]["captures"] >= 1
        else:
            assert "snapshots" not in result

    def test_rejects_unknown_mode(self):
        harness = _harness(2, 2, "object")
        with pytest.raises(ValueError):
            QueryLoadGenerator(harness, QueryLoadConfig(mode="bogus"))
