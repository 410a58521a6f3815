"""Global event heap: the time source of the fast-path simulators.

Before this module, time lived in two places: the single-engine
simulator kept a ``_Clock`` it bumped per iteration, and the fleet
simulator kept one clock *per replica* and lockstepped all of them to
every arrival (stepping each replica until its clock reached the
arrival) so the router could inspect consistent state — an
O(replicas x arrivals) scan that polls mostly-idle replicas.

:class:`EventLoop` replaces both with one ``heapq`` ordered by
simulated time.  Event kinds:

- :data:`ARRIVAL` — a request hits the front end;
- :data:`STEP` — a replica (or the single engine) reaches its next
  iteration boundary;
- :data:`TRANSFER` — reserved for cross-replica work movement
  (prefill/decode disaggregation, the ROADMAP item this core exists
  to unlock); no current producer.
- :data:`SAMPLE` — a periodic telemetry boundary
  (:mod:`repro.obs.timeline`): pure observation, never simulation.
  SAMPLE pops are counted separately (``EventStats.n_samples``) and
  excluded from every exported counter, so a run's ``metrics()`` stays
  bit-identical with sampling on or off.

Ordering is ``(time, kind, seq)``: at equal time an ARRIVAL pops
before a STEP, which reproduces the lockstep contract exactly — a
replica advances only while strictly *behind* an arrival
(``now_s < t``), and an iteration boundary landing exactly on the
arrival instant waits until after routing.  SAMPLE sorts before both,
so timeline windows are half-open ``[start, end)`` — an arrival landing
exactly on a window boundary counts in the *next* window.  ``seq`` is
a monotone tiebreaker so payloads never need comparing.

Because replicas interact only through routing, popping in global time
order is *bit-identical* to the lockstep schedule: each replica's
iteration chain is a function of its own submissions and clock, and
the router still sees every replica advanced to (or past) each arrival
instant.  What changes is who gets touched — an idle replica simply is
not in the heap, so sparse-arrival fleets stop paying the
poll-everyone tax (:class:`EventStats` counts exactly that;
``tests/test_serve_events.py`` pins the drop and the equivalence).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

__all__ = ["ARRIVAL", "SAMPLE", "STEP", "TRANSFER", "EventLoop",
           "EventStats"]

#: Event kinds, in tie-break priority order (lower pops first at equal
#: simulated time — see the module docstring for why
#: SAMPLE < ARRIVAL < STEP).
SAMPLE = -1
ARRIVAL = 0
STEP = 1
TRANSFER = 2


@dataclass
class EventStats:
    """Counters of one event-loop run (wakeup accounting).

    ``n_step_events`` is the number of times a worker was *woken* to
    run one iteration — under the heap this equals the iterations that
    actually execute, whereas the old lockstep driver additionally
    polled every replica at every arrival (``replicas x arrivals``
    activations, almost all no-ops on sparse traces).  ``n_idle_polls``
    counts wakeups that found no runnable work; the heap keeps it at
    zero by construction, and the regression test holds it there.
    """

    n_events: int = 0
    n_arrivals: int = 0
    n_step_events: int = 0
    n_transfers: int = 0
    n_idle_polls: int = 0
    #: Timeline SAMPLE pops.  Deliberately *not* part of ``n_events``
    #: and never exported by :meth:`emit_metrics`: the sampling cadence
    #: is an observability knob, and report metrics must stay
    #: bit-identical whether a run sampled or not.
    n_samples: int = 0

    def emit_metrics(self, registry, **labels) -> None:
        """Emit these counters into a
        :class:`~repro.obs.metrics.MetricsRegistry` (``n_idle_polls``
        stays zero by construction — exporting it makes the invariant
        monitorable, not just testable)."""
        registry.counter(
            "events_total", "Events popped from the global heap",
            **labels).inc(self.n_events)
        registry.counter(
            "events_arrivals_total", "ARRIVAL events popped",
            **labels).inc(self.n_arrivals)
        registry.counter(
            "events_steps_total", "STEP wakeups popped",
            **labels).inc(self.n_step_events)
        registry.counter(
            "events_transfers_total", "TRANSFER events popped",
            **labels).inc(self.n_transfers)
        registry.counter(
            "events_idle_polls_total",
            "Wakeups that found no runnable work",
            **labels).inc(self.n_idle_polls)


class EventLoop:
    """A ``heapq``-based future event list over simulated seconds."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = 0
        self.stats = EventStats()

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def empty(self) -> bool:
        return not self._heap

    def push(self, time_s: float, kind: int, payload: Any = None) -> None:
        """Schedule ``payload`` at ``time_s`` (stable FIFO at ties)."""
        self._seq += 1
        heapq.heappush(self._heap, (time_s, kind, self._seq, payload))

    def peek(self) -> Optional[Tuple[float, int, Any]]:
        """The next event without popping it, or ``None``."""
        if not self._heap:
            return None
        time_s, kind, _, payload = self._heap[0]
        return time_s, kind, payload

    def pop(self) -> Tuple[float, int, Any]:
        """Remove and return the next ``(time_s, kind, payload)``."""
        time_s, kind, _, payload = heapq.heappop(self._heap)
        st = self.stats
        if kind == SAMPLE:
            # Observation only: excluded from every exported counter.
            st.n_samples += 1
            return time_s, kind, payload
        st.n_events += 1
        if kind == ARRIVAL:
            st.n_arrivals += 1
        elif kind == STEP:
            st.n_step_events += 1
        else:
            st.n_transfers += 1
        return time_s, kind, payload
