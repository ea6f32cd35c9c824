"""Discrete-event simulation kernel.

Events are ordered by ``(time, seq)``: ties on time break on insertion
sequence, which makes every run fully deterministic for a given seed
and configuration.  Real runs dispatch several events per distinct
timestamp (2.8 in the Directory perf cell, 6.2 in PATCH-All), so
instead of one heap entry per event the kernel keys a dict of
per-timestamp *buckets* by time and keeps only the distinct times in a
heap: scheduling is a bucket append, and a whole bucket is dispatched
with one heap pop.

Bucket entries are ``(seq, payload)`` pairs.  Because the sequence
number is unique, sorting never reaches the payload — the kernel never
calls back into Python-level comparison.  Buckets are sorted once at
drain start (entries arrive almost sorted: posts draw monotonically
increasing sequence numbers).  The drain loop is a plain ``for`` over
the bucket list, so it picks up entries added *to the bucket being
drained* because list iterators re-check the length every step.  An
entry that draws a fresh sequence number there (a delay-0 post or
schedule) is appended: a fresh number is larger than every queued one,
so the bucket stays sorted.  Only a reserved sequence number
materializing at ``now`` (:meth:`Simulator.post_reserved`) can be
smaller than queued ones, and it alone is inserted in sorted position
within the bucket's undrained suffix.  The ``lo=_drain_pos`` bound
matters twice over: inserting *before* the cursor would shift the list
under the iterator and re-dispatch the current entry, and a reserved
seq smaller than the current one (claimed before the draining event
was posted) must run *next*, not retroactively earlier.

Two scheduling entry points share the buckets:

* :meth:`Simulator.schedule` allocates an :class:`Event` handle so the
  caller can cancel it later (used by timers such as PATCH's tenure
  timeout).
* :meth:`Simulator.post` is the fire-and-forget fast path: it queues
  the bare callback with no handle allocation.  The interconnect and
  cores schedule hundreds of thousands of uncancellable callbacks per
  run; skipping the per-event object is a measurable win.

Both assign sequence numbers from the same counter, so mixing them
never changes the tie-break order relative to an all-``schedule`` run.

The kernel knows nothing about coherence; protocol controllers, links
and cores all schedule plain callbacks.  The interconnect's link model
(:mod:`repro.interconnect.network`) inlines bucket insertion on its
hottest path, so it relies on the representation described here.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an illegal condition."""


class Event:
    """A scheduled callback handle.

    Holding on to the returned event allows cancellation (used by timers
    such as PATCH's tenure timeout).
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "_sim")

    def __init__(self, time: int, seq: int,
                 callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._sim: Optional["Simulator"] = None  # set while queued

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when dispatched."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq}{state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.schedule(5, lambda: order.append("b"))
    >>> sim.post(1, lambda: order.append("a"))
    >>> sim.run()
    >>> order
    ['a', 'b']
    """

    #: Compact the buckets once at least this many cancelled events are
    #: queued *and* they outnumber the live ones; keeps tenure-timer-heavy
    #: PATCH runs (which cancel most timers they set) from growing the
    #: queue unboundedly while amortizing the rebuild cost.
    COMPACTION_MIN_CANCELLED = 64

    def __init__(self) -> None:
        self._buckets: dict = {}  # time -> [(seq, Event | callback), ...]
        self._times: list = []    # heap of distinct bucket times
        self._seq = 0
        self.now: int = 0
        self._events_processed = 0
        self._stopped = False
        self._live = 0            # non-cancelled events in the queue
        self._cancelled = 0       # cancelled events still in the queue
        self._current_seq = -1    # seq of the event being dispatched
        self._draining = -1       # time of the bucket being drained
        self._drain_pos = 0       # entries of it consumed by run()
        self._event_sink = None   # per-dispatch observer (timeline tracing)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` ``delay`` cycles from now; cancellable."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + int(delay)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback)
        event._sim = self
        self._append(time, (seq, event))
        return event

    def post(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` with no cancellation handle (fast path).

        Identical ordering semantics to :meth:`schedule` — same clock,
        same sequence counter — minus the :class:`Event` allocation.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        seq = self._seq
        self._seq = seq + 1
        time = self.now + int(delay)
        bucket = self._buckets.get(time)  # inlined _append
        if bucket is None:
            self._buckets[time] = [(seq, callback)]
            _heappush(self._times, time)
        else:
            bucket.append((seq, callback))
        self._live += 1

    def reserve_seq(self) -> int:
        """Claim the next sequence number without queueing anything.

        Lets a caller hold open the tie-break slot an event *would* have
        occupied and materialize it later (or never) via
        :meth:`post_reserved`.  The link scheduler uses this to elide
        provably-no-op events while keeping the event order bit-identical
        to a run that scheduled them: sequence numbers only ever break
        ties, so an unused gap is invisible.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def post_reserved(self, time: int, seq: int,
                      callback: Callable[[], None]) -> None:
        """Queue ``callback`` at an absolute ``time`` under a sequence
        number previously claimed with :meth:`reserve_seq`."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past (t={time} < now={self.now})")
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(seq, callback)]
            _heappush(self._times, time)
        elif time == self._draining:
            # An old seq may sort before queued entries; keep it behind
            # the drain cursor (see the module docstring).
            insort(bucket, (seq, callback), self._drain_pos)
        else:
            bucket.append((seq, callback))
        self._live += 1

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute time (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past (t={time} < now={self.now})")
        return self.schedule(time - self.now, callback)

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    def set_event_sink(self, sink: Optional[Callable[[int], None]]) -> None:
        """Install (or clear) a per-dispatch observer.

        ``sink(time)`` fires once per dispatched event, before its
        callback runs — the timeline recorder samples event density
        through this.  Observation only: a sink must not schedule,
        cancel, or otherwise touch kernel state, which keeps a traced
        run bit-identical to an untraced one.  The run loop reads the
        sink once into a local, so the disabled default costs a single
        ``is not None`` test per event.
        """
        self._event_sink = sink

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued (O(1))."""
        return self._live

    def close(self) -> None:
        """Drop every queued event and the event sink.

        Queued callbacks are bound to the links, controllers and cores
        that hold this clock, so they tie a finished run's parts into a
        cycle (see :meth:`repro.core.system.System.close`).
        """
        self._buckets.clear()
        self._times.clear()
        self._live = self._cancelled = 0
        self._event_sink = None

    def _append(self, time: int, entry: tuple) -> None:
        """Queue an entry whose seq was drawn just now.  It is larger
        than every queued seq, so it goes last, even in the bucket being
        drained."""
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [entry]
            _heappush(self._times, time)
        else:
            bucket.append(entry)
        self._live += 1

    def _note_cancelled(self) -> None:
        """A queued event was cancelled; maybe compact the buckets."""
        self._live -= 1
        self._cancelled += 1
        if (self._cancelled >= self.COMPACTION_MIN_CANCELLED
                and self._cancelled > self._live):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from every non-draining bucket.

        The bucket being drained is left alone — run() iterates it in
        place, and removing entries would shift the drain cursor; the
        cancelled entries of its undrained suffix are skipped (and
        counted down) at dispatch, so only they stay counted.  The
        consumed prefix was counted down already.  Buckets are mutated
        in place: run() holds local aliases to them.
        """
        event_cls = Event
        remaining = 0
        for time, bucket in self._buckets.items():
            if time == self._draining:
                for _seq, payload in bucket[self._drain_pos:]:
                    if payload.__class__ is event_cls and payload.cancelled:
                        remaining += 1
                continue
            keep = []
            for entry in bucket:
                payload = entry[1]
                if payload.__class__ is event_cls and payload.cancelled:
                    payload._sim = None
                else:
                    keep.append(entry)
            if len(keep) != len(bucket):
                bucket[:] = keep
        self._cancelled = remaining

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` cycles pass, or stop().

        ``max_events`` guards against protocol livelock in tests; exceeding
        it raises :class:`SimulationError`.
        """
        self._stopped = False
        buckets = self._buckets
        times = self._times
        event_cls = Event
        sink = self._event_sink
        processed = 0
        limit = max_events if max_events is not None else -1
        try:
            while times and not self._stopped:
                t = times[0]
                if until is not None and t > until:
                    self.now = until
                    return
                _heappop(times)
                bucket = buckets[t]
                if len(bucket) > 1:
                    bucket.sort()
                self.now = t
                self._draining = t
                i = 0
                skipped = 0
                livelock = False
                # A plain for-loop: list iterators re-check the length
                # each step, so entries inserted mid-drain (delay-0
                # posts, materialized reserved slots) are dispatched in
                # this same pass, in seq order.  _drain_pos mirrors the
                # iterator so those inserts land behind it.  The
                # ``finally`` settles the live count once per bucket
                # (instead of per event) and removes consumed entries
                # even when a callback raises, so the kernel stays
                # consistent across an escaping exception.
                try:
                    for entry in bucket:
                        i += 1
                        self._drain_pos = i
                        payload = entry[1]
                        if payload.__class__ is event_cls:
                            payload._sim = None  # late cancel() is a no-op
                            if payload.cancelled:
                                self._cancelled -= 1
                                skipped += 1
                                continue
                            callback = payload.callback
                        else:
                            callback = payload
                        self._current_seq = entry[0]
                        if sink is not None:
                            sink(t)
                        callback()
                        processed += 1
                        if self._stopped:
                            break
                        if processed == limit:
                            livelock = True
                            break
                finally:
                    self._live -= i - skipped
                    self._draining = -1
                    if i < len(bucket):
                        del bucket[:i]
                        _heappush(times, t)
                    else:
                        del buckets[t]
                if livelock:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "possible livelock")
            if until is not None and not self._stopped:
                self.now = max(self.now, until)
        finally:
            self._draining = -1
            self._events_processed += processed
