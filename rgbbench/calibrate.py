"""Host-speed calibration: timed work, corrected by a probe run beside it.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x within seconds (neighbours load the same cores, caches and memory).
Wall time alone then measures the host as much as the program.  A
:class:`HostClock` times a stretch of work while an interval timer
(``SIGALRM``) interrupts it every :data:`INTERVAL_S` seconds to run a fixed
reference probe: a small discrete-event loop (a heap of timed events over
60k slotted nodes with per-node dicts, ~37 MB that never grows), the same
kind of work as the program's simulator and kernel, so it slows down as
they do.  Each stretch
of program time between two probes is scaled by how much slower than
:data:`REFERENCE_PROBE_S` those two probes ran::

    calibrated = sum(segment_s * REFERENCE_PROBE_S / mean(probe before, probe after))

so ``calibrated`` is the time the work would have taken on a host that runs
the probe in ``REFERENCE_PROBE_S`` seconds.  Probe time itself is never
counted.  The probe is benchmark code: a change to the program changes the
segments, not the yardstick.

The handler runs between bytecodes of whatever program code is executing
and touches nothing of the program's.  :meth:`HostClock.held` defers probes
(for a read batch whose latency is timed by the caller); a disabled clock
(traced passes) times plain wall seconds.
"""

from __future__ import annotations

import heapq
import os
import random
import signal
import time
from contextlib import contextmanager
from typing import Iterator, Optional

INTERVAL_S = 0.2
PROBE_NODES = 60_000
PROBE_STEPS = 5_000
#: Probe time this host class shows when nothing else loads it; only a
#: scale, so calibrated seconds read close to wall seconds on a quiet host.
REFERENCE_PROBE_S = 0.0105


def resident_mb() -> float:
    """Current resident set size (Linux ``/proc``; 0 elsewhere)."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Timed:
    """What one :meth:`HostClock.timing` block measured."""

    __slots__ = ("wall_s", "calibrated_s", "probes")

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.calibrated_s = 0.0
        self.probes = 0


class _Node:
    __slots__ = ("seen", "peers")

    def __init__(self, peers) -> None:
        self.seen = dict.fromkeys(range(8), 0.0)  # full: probes only overwrite
        self.peers = peers


class HostClock:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.footprint_mb = 0.0
        self.probe_s = 0.0  # every probe so far, in wall seconds
        self.probes = 0
        self._timed: Optional[Timed] = None
        self._held = False
        self._due = False
        if enabled:
            before = resident_mb()
            rng = random.Random(0)
            self._nodes = [
                _Node([rng.randrange(PROBE_NODES) for _ in range(4)])
                for _ in range(PROBE_NODES)
            ]
            self.footprint_mb = resident_mb() - before
            self.probe()  # first touch, outside any timing

    def probe(self) -> float:
        """Run the reference probe once; its wall seconds."""
        nodes = self._nodes
        pop, push = heapq.heappop, heapq.heappush
        started = time.perf_counter()
        heap = [(0.0, k, k * 997 % PROBE_NODES) for k in range(64)]
        serial = 64
        for _ in range(PROBE_STEPS):
            at, _, index = pop(heap)
            node = nodes[index]
            node.seen[index & 7] = at
            serial += 1
            push(heap, (at + 0.25 + (serial % 7) * 0.01, serial, node.peers[serial & 3]))
        took = time.perf_counter() - started
        self.probe_s += took
        self.probes += 1
        return took

    # -- timing ---------------------------------------------------------------

    def _segment(self) -> None:
        """Close the running segment with a probe and open the next one."""
        now = time.perf_counter()
        timed = self._timed
        took = self.probe()
        segment = now - self._segment_start
        timed.wall_s += segment
        timed.calibrated_s += segment * REFERENCE_PROBE_S / ((self._last_probe + took) / 2)
        timed.probes += 1
        self._last_probe = took
        self._segment_start = time.perf_counter()

    def _on_alarm(self, _signum, _frame) -> None:
        if self._timed is None:
            return
        if self._held:
            self._due = True
            return
        self._segment()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    @contextmanager
    def timing(self) -> Iterator[Timed]:
        """Time the block; read the yielded :class:`Timed` after it ends."""
        timed = Timed()
        if not self.enabled:
            started = time.perf_counter()
            try:
                yield timed
            finally:
                timed.wall_s = timed.calibrated_s = time.perf_counter() - started
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._last_probe = self.probe()
        self._timed = timed
        self._segment_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield timed
        finally:
            self._held = True  # a signal still in flight only marks a probe due
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._segment()
            self._timed = None
            self._held = self._due = False
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def held(self) -> Iterator[None]:
        """Defer any probe due inside the block to its end."""
        self._held = True
        try:
            yield
        finally:
            self._held = False
            if self._due and self._timed is not None:
                self._due = False
                self._segment()
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

