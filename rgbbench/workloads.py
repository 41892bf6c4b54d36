"""The benchmark's three workloads, their input generators and gates.

Every workload is a sequence of independent *blocks*.  A block builds its
system from scratch (timed as set-up), feeds it inputs generated from the
block's own seed, runs it to quiescence and checks the outcome.  The number
of blocks follows from the requested run length, so the same seed and
length always give the same inputs and the same exact counts.

Only public entry points are driven: ``ScenarioHarness`` scheduling,
``harness.serving_frontend()`` submit/drain, and the structural
``HierarchyBuilder.regular`` + ``OneRoundEngine(backend="columnar")``
capture/propagate path.  The object kernel is not run here; it stays the
test suite's oracle.
"""

from __future__ import annotations

import contextlib
import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from calibrate import HostClock, Timed
from repro.analysis.scalability import hcn_ring
from repro.core.config import ProtocolConfig
from repro.core.hierarchy import HierarchyBuilder, paused_gc
from repro.core.identifiers import clear_intern_tables
from repro.core.one_round import OneRoundEngine
from repro.core.query import MembershipQueryService, MembershipScheme
from repro.sim.harness import HarnessConfig, ScenarioHarness

SCHEMES = (MembershipScheme.TMS, MembershipScheme.BMS, MembershipScheme.IMS)
BATCH_QUERIES = 48
BATCH_INTERVAL = 0.5  # simulated seconds between a drain and the next submit
REMOVE_SHARE = 0.3  # share of changes that remove an eligible member
MIN_AGE = 20.0  # simulated seconds before a member may leave or fail


@dataclass(frozen=True)
class Change:
    time: float
    kind: str  # "join" | "leave" | "failure"
    guid: str
    ap: str


@dataclass
class Block:
    """What one block measured."""

    setup: Timed
    run: Timed  # harness.run() / propagate()
    changes: int
    rounds: int
    query_s: List[float]
    batch_s: List[float]

    @property
    def wall_s(self) -> float:
        """The measured part of the block; input generation is left out."""
        return self.setup.wall_s + self.run.wall_s


@dataclass
class Tally:
    """Everything one pass measures and checks, over all of its blocks."""

    blocks: List[Block] = field(default_factory=list)
    hops: int = 0
    events: int = 0
    sends: int = 0
    repairs: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    serving: Dict[str, int] = field(default_factory=dict)
    visible: List[float] = field(default_factory=list)
    superseded: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(b.wall_s for b in self.blocks)

    @property
    def changes(self) -> int:
        return sum(b.changes for b in self.blocks)

    @property
    def rounds(self) -> int:
        return sum(b.rounds for b in self.blocks)

    @property
    def queries(self) -> int:
        return sum(len(b.query_s) for b in self.blocks)

    def fail(self, what: str, count: int = 1) -> None:
        if count:
            self.failures.append(f"{what} (x{count})" if count > 1 else what)
            self.failed += count



def accumulate(target: Dict[str, int], values: Dict[str, int]) -> None:
    for name, value in values.items():
        target[name] = target.get(name, 0) + value


def block_rng(workload: str, seed: int, block: int, stream: str) -> random.Random:
    """Independent, process-stable RNG per (workload, seed, block, stream)."""
    return random.Random(f"{workload}/{seed}/{block}/{stream}")


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# ----------------------------------------------------------------------
# input generation
# ----------------------------------------------------------------------


def churn_schedule(
    rng: random.Random, sites: List[str], changes: int, min_gap: float, rate: float,
) -> List[Change]:
    """Membership changes: joins, plus leaves and member failures.

    Gaps between changes are ``min_gap`` plus an exponential with ``rate``
    (``min_gap=0`` is a Poisson process), sampled in strata: the ``changes``
    gaps are the exponential's quantiles at ``(i + 0.5) / changes``, in an
    order the seed shuffles.  Every seed so gets the same gap distribution
    and time span (how much changes overlap sets the rounds each costs);
    order, sites and kinds vary.  A member may leave or fail once it joined
    ``MIN_AGE`` simulated seconds ago, so a removal rarely supersedes a join
    still in flight.
    """
    gaps = [min_gap - math.log(1.0 - (i + 0.5) / changes) / rate for i in range(changes)]
    rng.shuffle(gaps)
    out: List[Change] = []
    present: List[Tuple[float, str, str]] = []
    now = 0.0
    serial = 0
    for gap in gaps:
        now += gap
        eligible = [i for i, (t, _, _) in enumerate(present) if now - t >= MIN_AGE]
        if eligible and rng.random() < REMOVE_SHARE:
            _, guid, ap = present.pop(rng.choice(eligible))
            kind = "leave" if rng.random() < 0.5 else "failure"
            out.append(Change(now, kind, guid, ap))
        else:
            guid = f"m{serial:05d}"
            serial += 1
            ap = rng.choice(sites)
            present.append((now, guid, ap))
            out.append(Change(now, "join", guid, ap))
    return out


def expected_members(changes: List[Change]) -> set:
    """The membership the generator's own event list implies."""
    members = set()
    for change in changes:
        if change.kind == "join":
            members.add(change.guid)
        else:
            members.discard(change.guid)
    return members


# ----------------------------------------------------------------------
# probes installed on the harness
# ----------------------------------------------------------------------


class VisibilityProbe:
    """Capture-to-top-view latency per change, in simulated seconds.

    Fires on every committed round (``add_round_listener``); only top-ring
    commits can change the top leader's view.  A change still pending when
    a later change to the same member is captured is superseded and gives no
    sample; so does a removal whose join was never seen at the top.
    """

    def __init__(self, harness: ScenarioHarness, changes: List[Change]) -> None:
        self.harness = harness
        self.top_ring = harness.hierarchy.topmost_ring().ring_id
        self.changes = changes  # in time order, as generated
        self.next = 0
        self.watch: Dict[str, Change] = {}
        self.seen_at_top: set = set()
        self.samples: List[float] = []
        self.superseded = 0
        harness.add_round_listener(self.on_round)

    def on_round(self, ring_id: str, now: float) -> None:
        if ring_id != self.top_ring:
            return
        changes = self.changes
        while self.next < len(changes) and changes[self.next].time <= now:
            change = changes[self.next]
            self.next += 1
            pending_join = self.watch.pop(change.guid, None)
            if pending_join is not None or (
                change.kind != "join" and change.guid not in self.seen_at_top
            ):
                # A removal cancels a join the top never saw: neither samples.
                self.superseded += 2 if pending_join is not None else 1
                continue
            self.watch[change.guid] = change
        if not self.watch:
            return
        view = set(self.harness.global_guids())
        for guid, change in list(self.watch.items()):
            if (guid in view) == (change.kind == "join"):
                self.samples.append(now - change.time)
                if change.kind == "join":
                    self.seen_at_top.add(guid)
                del self.watch[guid]

    def unresolved(self) -> int:
        """Changes captured (or due) but never seen at the top."""
        return len(self.watch) + (len(self.changes) - self.next)


class ReadClient:
    """One closed-loop reader: a 48-query batch, drain, wait 0.5 sim s.

    Queries rotate TMS/BMS/IMS at random live entry proxies; the next batch
    is scheduled only after the current drain returns.  The batch count is
    fixed, so the read work does not depend on the seed.
    """

    def __init__(
        self, harness, rng: random.Random, entries: List[str], batches: int, clock: HostClock
    ) -> None:
        self.harness = harness
        self.clock = clock
        self.frontend = harness.serving_frontend()
        self.rng = rng
        self.entries = entries
        self.batches = batches
        self.query_s: List[float] = []
        self.batch_s: List[float] = []
        harness.schedule_call(BATCH_INTERVAL, self.batch, label="read-batch")

    def batch(self) -> None:
        frontend = self.frontend
        choice = self.rng.choice
        entries = self.entries
        for i in range(BATCH_QUERIES):
            frontend.submit(SCHEMES[i % 3], choice(entries))
        timings: List[float] = []
        with self.clock.held():
            started = time.perf_counter()
            frontend.drain(timings=timings)
            self.batch_s.append(time.perf_counter() - started)
        self.query_s.extend(timings)
        if len(self.batch_s) < self.batches:
            now = self.harness.engine.now
            self.harness.schedule_call(now + BATCH_INTERVAL, self.batch, label="read-batch")


def check_answers(frontend, store, entries: List[str], tally: Tally) -> None:
    """Frontend answers must equal the object query path, scheme by scheme."""
    for entry in entries:
        reference = MembershipQueryService(store, entry_point=entry)
        for scheme in SCHEMES:
            tally.attempted += 1
            if frontend.query(scheme, entry) != reference.query(scheme):
                tally.fail(f"{scheme.name} answer at {entry} differs from the object path")


def _release() -> None:
    """Free the previous block before the next set-up, as a fresh process would."""
    gc.collect()
    clear_intern_tables()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HarnessWorkload:
    """Churn blocks on the event-driven harness, optionally with the reader."""

    name: str
    height: int
    loss: float
    changes: int
    min_gap: float  # simulated seconds; gaps are min_gap + Exp(rate)
    rate: float
    crashes: int
    read_batches: int  # reader batches per block (0: no reader)
    block_seconds: float  # nominal run length of one block (sets block count)
    why: str

    def run_block(self, seed: int, block: int, tally: Tally, untraced, clock: HostClock) -> None:
        config = HarnessConfig(
            ring_size=10, height=self.height, seed=seed * 1000 + block,
            loss=self.loss, backend="columnar",
        )
        with clock.timing() as setup:
            harness = ScenarioHarness(config)
        rng = block_rng(self.name, seed, block, "writes")
        aps = harness.access_proxies()
        crashed = sorted(rng.sample(aps, self.crashes))
        excluded = set(crashed)
        sites = [ap for ap in aps if ap not in excluded]
        changes = churn_schedule(rng, sites, self.changes, self.min_gap, self.rate)
        for change in changes:
            if change.kind == "join":
                harness.schedule_join(change.time, change.ap, guid=change.guid)
            elif change.kind == "leave":
                harness.schedule_leave(change.time, change.guid)
            else:
                harness.schedule_failure(change.time, change.guid)
        # Crashes at proxies no member ever joins, one just before each equal
        # slice of the changes.  The first repair turns the columnar fast
        # path off for the rest of the block, so every block runs the same
        # decline-to-object path from its first change on.
        for i, ap in enumerate(crashed):
            at = changes[i * len(changes) // self.crashes].time
            harness.schedule_crash(max(0.0, at - rng.random()), ap)
        probe = VisibilityProbe(harness, changes)
        reader = None
        if self.read_batches:
            reader = ReadClient(
                harness, block_rng(self.name, seed, block, "reads"), sites, self.read_batches,
                clock,
            )
        with clock.timing() as run:
            result = harness.run()

        counters = harness.counter_values()
        tally.blocks.append(Block(
            setup, run, len(changes), counters.get("rounds.completed", 0),
            reader.query_s if reader else [], reader.batch_s if reader else [],
        ))
        accumulate(tally.counters, counters)
        tally.hops += sum(counters.get(k, 0) for k in ("hops.token", "hops.notify", "hops.ack"))
        tally.events += result.dispatched_events
        tally.sends += counters.get("transport.sent", 0)
        tally.repairs += counters.get("repairs.ring", 0)
        tally.visible.extend(probe.samples)
        tally.superseded += probe.superseded
        tally.attempted += len(changes)

        with untraced():
            tally.fail("changes never visible at the top ring", probe.unresolved())
            if not result.converged:
                tally.fail(f"block {block} did not converge")
            if not harness.ring_agreement():
                tally.fail(f"block {block} ring views disagree")
            got = set(harness.global_guids())
            want = expected_members(changes)
            if got != want:
                tally.fail(f"block {block} membership differs", len(got ^ want))
            if reader is not None:
                tally.attempted += len(reader.query_s)
                accumulate(tally.serving, reader.frontend.stats())
                check_answers(reader.frontend, harness.kernel, rng.sample(sites, 2), tally)
            del harness, probe, reader, result
            _release()


@dataclass(frozen=True)
class PropagateWorkload:
    """A join burst on the structural columnar engine."""

    name: str
    height: int
    joins: int
    block_seconds: float
    why: str

    def run_block(self, seed: int, block: int, tally: Tally, untraced, clock: HostClock) -> None:
        rng = block_rng(self.name, seed, block, "writes")
        with clock.timing() as setup, paused_gc():
            hierarchy = HierarchyBuilder("bench").regular(ring_size=10, height=self.height)
            engine = OneRoundEngine(
                hierarchy, config=ProtocolConfig(aggregation_delay=0.0), backend="columnar"
            )
        # One join under each of ``joins`` distinct top-ring members, so no
        # two joins share a ring below the top and each costs HCN_Ring hops.
        aps = hierarchy.access_proxies()
        sites: List[str] = []
        tops = set()
        while len(sites) < self.joins:
            ap = aps[rng.randrange(len(aps))]
            top = hierarchy.ancestry(ap)[-1]
            if top not in tops:
                tops.add(top)
                sites.append(str(ap))
        guids = [f"burst-{block}-{i}" for i in range(self.joins)]
        with clock.timing() as run:
            for ap, guid in zip(sites, guids):
                engine.member_join(ap, guid)
            report = engine.propagate()

        tally.blocks.append(Block(setup, run, self.joins, report.round_count, [], []))
        tally.hops += report.hop_count
        accumulate(
            tally.counters, {name: c.value for name, c in engine.metrics.counters.items()}
        )
        tally.repairs += len(report.repaired)
        tally.attempted += self.joins

        want_hops = self.joins * hcn_ring(self.height, 10)
        with untraced():
            if report.hop_count != want_hops:
                tally.fail(f"hop count {report.hop_count} != {want_hops}")
            if engine.pending_rings():
                tally.fail(f"block {block} did not converge")
            got = set(engine.global_guids())
            if got != set(guids):
                tally.fail(f"block {block} membership differs", len(got ^ set(guids)))
            rings = [hierarchy.topmost_ring().ring_id]
            rings += [hierarchy.ring_of(ap).ring_id for ap in sites]
            if not all(engine.ring_agreement(ring_id) for ring_id in rings):
                tally.fail(f"block {block} ring views disagree")
            del engine, hierarchy, report, aps
            _release()


WORKLOADS: Dict[str, object] = {
    w.name: w
    for w in (
        HarnessWorkload(
            name="churn_10k", height=4, loss=0.01, changes=30, min_gap=0.0, rate=1.0,
            crashes=4, read_batches=0, block_seconds=4.0,
            why="lossy Poisson churn with proxy crashes: engine, transport, dispatch, ring repair",
        ),
        # Changes 30+ sim-s apart never share rounds (each costs exactly one
        # round per ring), so the work per block does not depend on the seed.
        HarnessWorkload(
            name="serve_100k", height=5, loss=0.0, changes=2, min_gap=30.0, rate=0.2,
            crashes=0, read_batches=160, block_seconds=10.0,
            why="reads beside spaced churn at 100k proxies: snapshot capture, fan-out, frontend",
        ),
        PropagateWorkload(
            name="propagate_1m", height=6, joins=4, block_seconds=17.0,
            why="a join burst over 1.1M entities: the fused columnar round and bulk build",
        ),
    )
}


def blocks_for(workload, seconds: int) -> int:
    """Blocks per run: enough to fill ``seconds``, never fewer than two."""
    return max(2, round(seconds / workload.block_seconds))


def run_pass(
    workload, seed: int, blocks: int, untraced=contextlib.nullcontext, clock=None
) -> Tally:
    """Run ``blocks`` blocks; ``untraced()`` brackets the gates and clean-up.

    Without a ``clock`` the pass times plain wall seconds."""
    tally = Tally()
    clock = clock or HostClock(enabled=False)
    for block in range(blocks):
        workload.run_block(seed, block, tally, untraced, clock)
    return tally


def peak_rss_mb(clock: HostClock) -> float:
    """Peak resident set of the process, less the calibration probe's data."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - clock.footprint_mb


def end_to_end(tally: Tally, clock: HostClock) -> Dict[str, Tuple[float, str]]:
    """The bounded metrics of one pass, in calibrated seconds, pooled over
    its blocks: rates are ratios of sums, set-up is the blocks' median."""
    run_s = sum(b.run.calibrated_s for b in tally.blocks)
    return {
        "setup_s": (statistics.median(b.setup.calibrated_s for b in tally.blocks), "s"),
        "peak_rss_mb": (peak_rss_mb(clock), "MB"),
        "changes_per_s": (tally.changes / run_s, "1/s"),
        "rounds_per_s": (tally.rounds / run_s, "1/s"),
    }


def wall_clock(tally: Tally) -> Dict[str, Tuple[float, str]]:
    """The same rates and set-up in uncorrected wall seconds (reported only)."""
    run_s = sum(b.run.wall_s for b in tally.blocks)
    return {
        "setup_wall_s": (statistics.median(b.setup.wall_s for b in tally.blocks), "s"),
        "changes_per_wall_s": (tally.changes / run_s, "1/s"),
        "rounds_per_wall_s": (tally.rounds / run_s, "1/s"),
    }


def reads_and_visibility(tally: Tally) -> Dict[str, Tuple[float, str]]:
    """Reader latencies and change visibility (0 where a workload has none)."""
    query_s = [q for b in tally.blocks for q in b.query_s]
    batch_s = [q for b in tally.blocks for q in b.batch_s]
    return {
        "visible_p50_sim_s": (percentile(tally.visible, 50), "s"),
        "visible_p90_sim_s": (percentile(tally.visible, 90), "s"),
        "queries_per_s": (len(query_s) / sum(batch_s) if batch_s else 0.0, "1/s"),
        "query_p99_ms": (percentile(query_s, 99) * 1e3, "ms"),
        "batch_p50_ms": (percentile(batch_s, 50) * 1e3, "ms"),
        "batch_p90_ms": (percentile(batch_s, 90) * 1e3, "ms"),
    }


def exact_counts(tally: Tally) -> Dict[str, float]:
    """Counts that must repeat exactly for the same seed and code."""
    return {
        "changes": tally.changes,
        "engine.events": tally.events,
        "transport.sent": tally.sends,
        "kernel.rounds": tally.rounds,
        "kernel.hops": tally.hops,
        "kernel.repairs": tally.repairs,
        "serving.queries": tally.queries,
        "serving.captures": tally.serving.get("captures", 0),
        "visible.samples": len(tally.visible),
        "visible.superseded": tally.superseded,
        "visible_p50_sim_s": round(percentile(tally.visible, 50), 9),
        "visible_p90_sim_s": round(percentile(tally.visible, 90), 9),
    }


def warm_wall(tally: Tally) -> float:
    """Measured wall time of every block but the process's first, which
    alone pays for growing the heap; the traced pass runs second."""
    return sum(b.wall_s for b in tally.blocks[1:] or tally.blocks)


def per_layer(tally: Tally, tracer, untraced: Tally) -> Dict[str, Tuple[float, str]]:
    """Layer metrics of a traced pass (spans plus the program's counters),
    with its overhead taken against the ``untraced`` pass of the same inputs."""
    c = tally.counters
    spans = tracer.summary()

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def seconds(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    changes = max(tally.changes, 1)
    applies = calls("delta.apply")
    acquires = calls("serving.acquire") + calls("serving.capture")
    reused = tally.serving.get("hits", 0) + tally.serving.get("revalidations", 0)
    sent = c.get("transport.sent", 0)
    delivered_per_sent = c.get("transport.delivered", 0) / sent if sent else 0.0
    entries_per_apply = tracer.counts.get("delta.entries", 0) / applies if applies else 0.0
    return {
        "build.hierarchy_s": (seconds("build.hierarchy"), "s"),
        "build.kernel_s": (seconds("build.kernel"), "s"),
        "build.harness_s": (self_seconds("build.harness"), "s"),
        "harness.run_self_s": (self_seconds("harness.run"), "s"),
        "engine.events": (tally.events, "count"),
        "engine.run_s": (seconds("engine.run"), "s"),
        "engine.self_s": (self_seconds("engine.run"), "s"),
        "engine.events_per_change": (tally.events / changes, "count"),
        "transport.send_calls": (calls("transport.send"), "count"),
        "transport.send_s": (seconds("transport.send"), "s"),
        "transport.ff_calls": (calls("transport.ff"), "count"),
        "transport.ff_s": (seconds("transport.ff"), "s"),
        "transport.retransmissions": (c.get("transport.retransmissions", 0), "count"),
        "transport.dropped": (c.get("transport.dropped", 0), "count"),
        "transport.delivered_per_sent": (delivered_per_sent, "ratio"),
        "dispatch.notify_calls": (calls("dispatch.notify"), "count"),
        "dispatch.notify_s": (seconds("dispatch.notify"), "s"),
        "dispatch.token_hop_calls": (calls("dispatch.token_hop"), "count"),
        "dispatch.token_hop_s": (seconds("dispatch.token_hop"), "s"),
        "harness.notify_resends": (c.get("harness.notify_resends", 0), "count"),
        "harness.notify_rerouted": (c.get("harness.notify_rerouted", 0), "count"),
        "harness.dead_lettered": (c.get("harness.notify_dead_lettered", 0), "count"),
        "kernel.rounds": (tally.rounds, "count"),
        "kernel.round_calls": (calls("kernel.round"), "count"),
        "kernel.round_s": (seconds("kernel.round"), "s"),
        "kernel.round_self_s": (self_seconds("kernel.round"), "s"),
        "kernel.propagate_s": (seconds("kernel.propagate"), "s"),
        "kernel.propagate_self_s": (self_seconds("kernel.propagate"), "s"),
        "kernel.hops_per_change": (tally.hops / changes, "count"),
        "kernel.repairs": (tally.repairs, "count"),
        "delta.compile_calls": (calls("delta.compile"), "count"),
        "delta.compile_s": (seconds("delta.compile"), "s"),
        "delta.apply_calls": (applies, "count"),
        "delta.apply_s": (seconds("delta.apply"), "s"),
        "delta.entries_per_apply": (entries_per_apply, "count"),
        "delta.view_mutation_calls": (calls("delta.view_mutation"), "count"),
        "delta.view_mutation_s": (seconds("delta.view_mutation"), "s"),
        "serving.drain_calls": (calls("serving.drain"), "count"),
        "serving.drain_s": (seconds("serving.drain"), "s"),
        "serving.acquire_calls": (acquires, "count"),
        "serving.capture_s": (seconds("serving.capture"), "s"),
        "serving.fanout_calls": (calls("serving.fanout"), "count"),
        "serving.fanout_s": (seconds("serving.fanout"), "s"),
        "serving.reuse_ratio": (reused / acquires if acquires else 0.0, "ratio"),
        "serving.invalidations": (tally.serving.get("invalidations", 0), "count"),
        **{
            (f"kernel.{name}" if name.startswith("visible") else f"serving.{name}"): value
            for name, value in reads_and_visibility(tally).items()
        },
        "trace.coverage": (tracer.root_seconds() / tally.wall_s, "ratio"),
        "trace_overhead_frac": (warm_wall(tally) / warm_wall(untraced) - 1.0, "ratio"),
    }
