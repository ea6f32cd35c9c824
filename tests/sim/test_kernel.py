"""Tests for the discrete-event kernel: ordering, cancellation,
compaction, and live/processed accounting.

The ``sim`` fixture's ``batched`` id names the drain strategy under
test: :class:`Simulator` dispatches every event sharing a timestamp in
one pass over a sorted bucket.
"""

import pytest

from repro.sim.kernel import SimulationError, Simulator


@pytest.fixture(params=[Simulator], ids=["batched"])
def sim(request):
    return request.param()


def test_runs_events_in_time_order(sim):
    order = []
    sim.schedule(10, lambda: order.append("late"))
    sim.schedule(1, lambda: order.append("early"))
    sim.schedule(5, lambda: order.append("middle"))
    sim.run()
    assert order == ["early", "middle", "late"]


def test_ties_break_by_insertion_order(sim):
    order = []
    for name in "abc":
        sim.schedule(3, lambda n=name: order.append(n))
    sim.run()
    assert order == ["a", "b", "c"]


def test_now_advances_to_event_time(sim):
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]
    assert sim.now == 42


def test_nested_scheduling_from_callbacks(sim):
    order = []

    def first():
        order.append(("first", sim.now))
        sim.schedule(5, lambda: order.append(("second", sim.now)))

    sim.schedule(2, first)
    sim.run()
    assert order == [("first", 2), ("second", 7)]


def test_cancelled_events_do_not_fire(sim):
    fired = []
    event = sim.schedule(5, lambda: fired.append(True))
    event.cancel()
    sim.run()
    assert fired == []


def test_run_until_stops_at_horizon(sim):
    fired = []
    sim.schedule(5, lambda: fired.append(5))
    sim.schedule(100, lambda: fired.append(100))
    sim.run(until=50)
    assert fired == [5]
    assert sim.now == 50
    sim.run()
    assert fired == [5, 100]


def test_stop_halts_processing(sim):
    fired = []
    sim.schedule(1, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    sim.run()
    assert fired == [1, 2]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_absolute_time(sim):
    seen = []
    sim.schedule(10, lambda: sim.schedule_at(30, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [30]


def test_schedule_at_in_past_rejected(sim):
    def callback():
        with pytest.raises(SimulationError):
            sim.schedule_at(3, lambda: None)

    sim.schedule(10, callback)
    sim.run()


def test_max_events_guards_against_livelock(sim):
    def loop():
        sim.schedule(1, loop)

    sim.schedule(0, loop)
    with pytest.raises(SimulationError, match="livelock"):
        sim.run(max_events=100)


def test_pending_counts_live_events(sim):
    keep = sim.schedule(5, lambda: None)
    cancelled = sim.schedule(6, lambda: None)
    cancelled.cancel()
    assert sim.pending() == 1
    del keep


def test_pending_tracks_schedule_cancel_and_run(sim):
    events = [sim.schedule(i + 1, lambda: None) for i in range(10)]
    assert sim.pending() == 10
    events[0].cancel()
    events[0].cancel()  # double-cancel must not double-count
    assert sim.pending() == 9
    sim.run(until=5)
    assert sim.pending() == 5  # events at t=6..10 still queued
    sim.run()
    assert sim.pending() == 0


def test_cancel_after_fire_is_noop(sim):
    event = sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.run(until=1)
    event.cancel()  # already ran; must not corrupt the live count
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0


def test_cancelled_event_compaction_shrinks_queue():
    sim = Simulator()
    threshold = Simulator.COMPACTION_MIN_CANCELLED
    keep = [sim.schedule(10_000 + i, lambda: None) for i in range(8)]
    timers = [sim.schedule(i + 1, lambda: None)
              for i in range(4 * threshold)]
    for timer in timers:
        timer.cancel()
    # Compaction bounds the queue: cancelled events can linger only
    # while they are fewer than max(threshold, live events).
    assert sum(len(bucket) for bucket in sim._buckets.values()) \
        <= len(keep) + threshold
    assert sim.pending() == len(keep)
    fired = []
    sim.schedule(1, lambda: fired.append(1))
    sim.run()
    assert fired == [1]
    assert sim.pending() == 0
    del keep


def test_batched_compaction_drops_cancelled_bucket_entries():
    # Bucket-level view: compaction leaves each non-draining bucket
    # holding exactly its live entries in their original order, and
    # detaches the dropped events so a repeat cancel() is a no-op.
    sim = Simulator()
    threshold = Simulator.COMPACTION_MIN_CANCELLED
    events = [sim.schedule(7, lambda: None) for _ in range(threshold + 3)]
    live = [events[0], events[threshold // 2], events[-1]]
    live_ids = {id(event) for event in live}
    cancelled = [event for event in events if id(event) not in live_ids]
    for event in cancelled:
        event.cancel()  # the last cancel crosses the threshold
    assert [payload for _seq, payload in sim._buckets[7]] == live
    assert sim._cancelled == 0
    assert all(event._sim is None for event in cancelled)
    cancelled[0].cancel()
    assert sim._cancelled == 0
    assert sim.pending() == len(live)
    fired = []
    for event in live:
        event.callback = lambda e=event: fired.append(e)
    sim.run()
    assert fired == live


def test_compaction_preserves_event_order(sim):
    sim.COMPACTION_MIN_CANCELLED = 4
    order = []
    for name, delay in (("a", 3), ("b", 7), ("c", 11)):
        sim.schedule(delay, lambda n=name: order.append(n))
    cancelled = [sim.schedule(5, lambda: order.append("X"))
                 for _ in range(16)]
    for event in cancelled:
        event.cancel()
    sim.run()
    assert order == ["a", "b", "c"]


def test_events_processed_counter(sim):
    for _ in range(7):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_kernel_microbench_is_deterministic_in_event_count():
    counts = []
    for _ in range(2):
        sim = Simulator()
        remaining = [500]

        def tick():
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.post(3, tick)

        for chain in range(8):
            sim.post(chain, tick)
        sim.run()
        counts.append(sim.events_processed)
    assert counts[0] == counts[1]


def test_zero_delay_event_runs_at_current_time(sim):
    times = []

    def outer():
        sim.schedule(0, lambda: times.append(sim.now))

    sim.schedule(9, outer)
    sim.run()
    assert times == [9]


# ---------------------------------------------------------------------------
# Fast-path scheduling (post / reserve_seq)
# ---------------------------------------------------------------------------

def test_post_orders_with_schedule_by_shared_sequence(sim):
    """post() and schedule() draw from one sequence counter, so mixing
    them never changes tie-break order."""
    order = []
    sim.schedule(3, lambda: order.append("a"))
    sim.post(3, lambda: order.append("b"))
    sim.schedule(3, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_post_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.post(-1, lambda: None)


def test_post_counts_as_live_and_processed(sim):
    sim.post(1, lambda: None)
    sim.post(2, lambda: None)
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0
    assert sim.events_processed == 2


def test_reserved_seq_materializes_in_original_tie_break_slot(sim):
    """An event posted under a reserved sequence number beats same-time
    events whose sequence numbers were drawn later."""
    order = []
    reserved = sim.reserve_seq()
    sim.post(5, lambda: order.append("later-seq"))
    sim.post_reserved(5, reserved, lambda: order.append("reserved"))
    sim.run()
    assert order == ["reserved", "later-seq"]


def test_reserved_seq_gap_is_harmless_when_unused(sim):
    order = []
    sim.reserve_seq()  # claimed, never materialized
    sim.post(1, lambda: order.append("x"))
    sim.run()
    assert order == ["x"]
    assert sim.pending() == 0


def test_post_reserved_in_past_rejected(sim):
    sim.post(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post_reserved(5, sim.reserve_seq(), lambda: None)


def test_reserved_seq_materializing_mid_drain_runs_in_same_pass(sim):
    """A reserved slot posted *at the draining timestamp* from inside a
    callback still lands in its original tie-break position."""
    order = []
    reserved = sim.reserve_seq()

    def first():
        order.append("first")
        # Materializes at now, with a seq older than "last"'s: it must
        # run before "last" even though it was posted mid-drain.
        sim.post_reserved(sim.now, reserved, lambda: order.append("reserved"))

    sim.post(5, first)
    sim.post(5, lambda: order.append("last"))
    sim.run()
    assert order == ["first", "reserved", "last"]


def test_mixed_post_and_cancelled_events_compact_cleanly(sim):
    sim.COMPACTION_MIN_CANCELLED = 4
    fired = []
    for i in range(8):
        sim.post(100 + i, lambda i=i: fired.append(i))
    timers = [sim.schedule(50, lambda: fired.append("timer"))
              for _ in range(16)]
    for timer in timers:
        timer.cancel()
    sim.run()
    assert fired == list(range(8))


def test_mid_run_compaction_keeps_live_queue(sim):
    """Regression: _compact() fired from a callback must mutate the
    pending-event storage in place — run() holds local aliases, and a
    rebind (or an edit to the bucket being drained) would silently drop
    or reorder everything scheduled after the compaction."""
    sim.COMPACTION_MIN_CANCELLED = 4
    fired = []
    timers = [sim.schedule(50, lambda: fired.append("timer"))
              for _ in range(10)]
    tail = sim.schedule(100, lambda: fired.append("tail"))

    def boom():
        for timer in timers:
            timer.cancel()  # cancelled (10) > live (1) -> compacts mid-run
        sim.post(5, lambda: fired.append("after-compaction"))

    sim.schedule(1, boom)
    sim.run()
    assert fired == ["after-compaction", "tail"]
    assert sim.pending() == 0
    sim.run()  # survivors must not be dispatched a second time
    assert fired == ["after-compaction", "tail"]
    del tail


def test_mid_drain_compaction_keeps_the_cancelled_count_exact(sim):
    """Regression: compaction fired mid-drain must count only the
    undrained suffix of the bucket being drained — its consumed prefix
    was counted down already, and re-counting it left ``_cancelled``
    above the number of cancelled events still queued."""
    sim.schedule(5, lambda: None).cancel()
    timers = [sim.schedule(10 + i, lambda: None) for i in range(100)]

    def cancel_timers():
        for timer in timers:
            timer.cancel()  # crosses the compaction threshold mid-drain

    sim.schedule(5, cancel_timers)
    sim.run()
    assert sim.pending() == 0
    assert sim._cancelled == 0
