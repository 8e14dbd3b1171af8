"""Streaming-multiprocessor issue model (detailed engine).

An :class:`SMCluster` stands for the SMs of one GPM.  It issues memory
operations in program order at a configurable rate, keeps a bounded
number outstanding (the aggregate MSHR / scoreboard capacity), and
stalls on synchronizing operations until they complete — the behaviour
that exposes remote round trips exactly when the memory model says they
must be waited on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.config import SystemConfig
from repro.core.types import NodeId


@dataclass
class SMClusterStats:
    issued: int = 0
    sync_stalls: int = 0
    stall_cycles: float = 0.0
    window_full_cycles: float = 0.0


class SMCluster:
    """In-order issue front-end of one GPM with bounded outstanding ops."""

    def __init__(self, node: NodeId, cfg: SystemConfig,
                 max_outstanding: int = 64):
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        self.node = node
        self.cfg = cfg
        self.issue_interval = 1.0 / cfg.timing.issue_rate_per_gpm
        self.max_outstanding = max_outstanding
        #: Completion times of in-flight operations, a min-heap.
        self._inflight: list = []
        #: Latest completion time ever issued.
        self._last_done = 0.0
        #: Earliest time the next op may issue.
        self.next_issue = 0.0
        self.stats = SMClusterStats()

    def _drain(self, now: float) -> None:
        """Retire every op completed by ``now``.  Issue times only grow,
        so the retired ops are always the heap's smallest."""
        inflight = self._inflight
        while inflight and inflight[0] <= now:
            heapq.heappop(inflight)

    def issue(self, now_hint: float, completion_of) -> float:
        """Issue the next op.

        ``completion_of(issue_time)`` maps an issue timestamp to the
        op's completion time (the engine computes it from the protocol
        outcome and link queuing).  Returns the issue time actually
        granted.
        """
        t = max(self.next_issue, now_hint)
        self._drain(t)
        if len(self._inflight) >= self.max_outstanding:
            # Wait for the oldest in-flight op to retire.
            oldest = self._inflight[0]
            self.stats.window_full_cycles += oldest - t
            t = oldest
            self._drain(t)
        done = completion_of(t)
        heapq.heappush(self._inflight, done)
        if done > self._last_done:
            self._last_done = done
        self.stats.issued += 1
        self.next_issue = t + self.issue_interval
        return t

    def barrier(self, now: float, completion: float) -> None:
        """Stall issue until ``completion`` (synchronizing op retired)."""
        self.stats.sync_stalls += 1
        if completion > self.next_issue:
            self.stats.stall_cycles += completion - max(now, self.next_issue)
            self.next_issue = completion

    @property
    def busy_until(self) -> float:
        # A retired op completed no later than the issue that retired
        # it, which precedes ``next_issue``; so the running maximum
        # equals the maximum over the ops still in flight whenever it
        # exceeds ``next_issue``.
        return max(self.next_issue, self._last_done)
