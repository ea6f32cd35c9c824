"""Property test: batched draining preserves exact dispatch order.

:class:`~repro.sim.kernel.Simulator` dispatches all events sharing a
timestamp in one pass over a sorted bucket instead of popping them one
at a time.  The contract is that this is *unobservable*: for any
program of schedules, posts, cancellations, reserved sequence numbers,
and callback-time follow-ups (including delay-0 posts and reserved
slots materializing into the bucket being drained), the dispatch order
is the ``(time, seq)`` order — exactly what :class:`HeapScheduler`,
a plain binary heap popped one entry at a time, produces.

Hypothesis drives randomized programs through both and compares the
full dispatch traces.
"""

from heapq import heapify, heappop, heappush
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator


class HeapScheduler:
    """The ordering contract in its plainest form: a binary heap of
    pending ``(time, seq, callback)`` entries, popped one at a time.
    Sequence numbers are unique, so callbacks are never compared."""

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self._seq = 0
        self._queue = []

    def reserve_seq(self):
        self._seq += 1
        return self._seq - 1

    def post_reserved(self, time, seq, callback):
        heappush(self._queue, (time, seq, callback))

    def post(self, delay, callback):
        self.post_reserved(self.now + delay, self.reserve_seq(), callback)

    def schedule(self, delay, callback):
        """Cancellable post: ``cancel()`` unqueues the entry."""
        entry = (self.now + delay, self.reserve_seq(), callback)
        heappush(self._queue, entry)

        def cancel():
            self._queue.remove(entry)
            heapify(self._queue)
        return SimpleNamespace(cancel=cancel)

    def pending(self):
        return len(self._queue)

    def run(self):
        while self._queue:
            self.now, _seq, callback = heappop(self._queue)
            callback()
            self.events_processed += 1


# A follow-up scheduled from inside a callback: its delay.  Delay 0
# lands in the bucket currently being drained.
_followup = st.integers(0, 3)

# One top-level operation:
#   kind        — how the event enters the queue
#   delay       — cycles from t=0 (small, to force timestamp collisions)
#   followups   — posts issued from the callback when it fires
#   materialize — claim a reserved seq up front and post_reserved it at
#                 ``now`` from inside the callback: the claimed seq is
#                 older than every same-time entry drawn later, so it
#                 lands mid-drain *behind* the drain cursor (regression
#                 cover for the cursor-shift double-dispatch bug)
_op = st.fixed_dictionaries({
    "kind": st.sampled_from(["schedule", "post", "reserved", "cancelled"]),
    "delay": st.integers(0, 6),
    "followups": st.lists(_followup, max_size=3),
    "materialize": st.booleans(),
})

_program = st.lists(_op, min_size=1, max_size=25)


def _run_program(kernel_cls, program):
    """Replay ``program`` on a fresh kernel; return the dispatch trace.

    Reserved ops claim their sequence number in program order (so both
    kernels draw identical seqs) but only materialize via
    ``post_reserved`` after every other op is queued — out of draw
    order, the way the link scheduler uses them.
    """
    sim = kernel_cls()
    trace = []
    counter = [0]

    def make_callback(label, followups, reserved_slot=None):
        def fire():
            trace.append((sim.now, label))
            if reserved_slot is not None:
                sim.post_reserved(sim.now, reserved_slot,
                                  make_callback(f"{label}.r", ()))
            for delay in followups:
                child = counter[0]
                counter[0] += 1
                sim.post(delay, make_callback(f"{label}.f{child}", ()))
        return fire

    deferred = []
    for index, op in enumerate(program):
        label = f"op{index}"
        reserved_slot = sim.reserve_seq() if op["materialize"] else None
        callback = make_callback(label, op["followups"], reserved_slot)
        if op["kind"] == "schedule":
            sim.schedule(op["delay"], callback)
        elif op["kind"] == "post":
            sim.post(op["delay"], callback)
        elif op["kind"] == "reserved":
            deferred.append((sim.reserve_seq(), op, callback))
        else:  # cancelled: scheduled, then cancelled before the run
            sim.schedule(op["delay"], callback).cancel()
    for seq, op, callback in deferred:
        sim.post_reserved(op["delay"], seq, callback)
    sim.run()
    return trace, sim.events_processed, sim.pending()


@settings(max_examples=200, deadline=None)
@given(program=_program)
def test_batched_drain_matches_heap_dispatch_order(program):
    assert (_run_program(Simulator, program)
            == _run_program(HeapScheduler, program))


@settings(max_examples=50, deadline=None)
@given(program=_program)
def test_batched_drain_is_self_deterministic(program):
    assert (_run_program(Simulator, program)
            == _run_program(Simulator, program))
