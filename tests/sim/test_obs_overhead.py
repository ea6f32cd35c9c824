"""The disabled-observability budget: the kernel's sink guard costs < 3%.

With observability off, the kernel's dispatch loop pays one hoisted
``sink is not None`` test per event.  :func:`disabled_sink_overhead`
races :class:`~repro.sim.kernel.Simulator` against
:class:`BareKernel`, the same loop with the guard deleted.

The budget is a timing measurement, so its test is marked ``smoke``:
``python -m pytest`` deselects it and CI runs it with
``python -m pytest -m smoke``.  Tier-1 keeps one tiny call of the
measurement, so the code the budget runs cannot break unnoticed.
"""

import time

import pytest

from repro.sim.kernel import Simulator

from test_batched_drain_properties import BareKernel

#: Largest fraction of bare-loop throughput the disabled guard may cost
#: (docs/OBSERVABILITY.md).
BUDGET = 0.03


def _kernel_pass(make_kernel, pending: int, events: int) -> float:
    """Events/sec of one timed pass over one kernel class's run loop.

    Keeps ``pending`` self-rescheduling chains in flight so the queue
    depth resembles a real run, then dispatches ``events`` callbacks.
    """
    sim = make_kernel()
    remaining = [events]

    def tick(chain: int, _sim=sim, _remaining=remaining):
        if _remaining[0] > 0:
            _remaining[0] -= 1
            _sim.post((chain * 7) % 13 + 1, lambda: tick(chain))

    for chain in range(pending):
        sim.post(chain % 11, lambda c=chain: tick(c))
    start = time.perf_counter()
    sim.run()
    return sim.events_processed / (time.perf_counter() - start)


def disabled_sink_overhead(pending: int = 2048, events: int = 60_000,
                           repeats: int = 5) -> float:
    """Fractional kernel slowdown from the *disabled* event sink.

    Passes are interleaved (real, bare, real, bare, ...) and each side
    keeps its best, so clock-speed drift on a shared machine hits both
    loops alike instead of whichever ran second (PERFORMANCE.md's
    measurement rule).  Returns ``1 - real/bare``: the fraction of
    bare-loop throughput the guard costs.  Negative values mean the
    difference vanished into measurement noise.
    """
    real = bare = 0.0
    for _ in range(repeats):
        real = max(real, _kernel_pass(Simulator, pending, events))
        bare = max(bare, _kernel_pass(BareKernel, pending, events))
    return 1.0 - real / bare


def test_kernel_microbench_dispatches_all_events():
    """Each pass runs every chain's first event plus one per budgeted
    reschedule, on both loops alike."""
    for kernel_cls in (Simulator, BareKernel):
        kernels = []

        def make_kernel(_cls=kernel_cls, _kernels=kernels):
            _kernels.append(_cls())
            return _kernels[-1]

        assert _kernel_pass(make_kernel, pending=32, events=2_000) > 0
        assert kernels[0].events_processed == 32 + 2_000


def test_disabled_sink_overhead_is_a_small_fraction():
    """Shape only: both loops dispatch the same work, so the ratio is
    near 1.  The budget itself is the smoke test below.  A pass is about
    a millisecond, so one preempted pass can halve a side's rate; the
    best of 20 per side kept all of 200 calls in range on two vCPUs
    shared with two busy loops (best of 2 left 40 out)."""
    overhead = disabled_sink_overhead(pending=32, events=2_000, repeats=20)
    assert -0.9 < overhead < 0.9


@pytest.mark.smoke
def test_disabled_sink_overhead_stays_within_budget():
    # Two independent measurements, keep the lower: a genuine
    # regression shows in both; a noise spike shows in one.
    samples = [disabled_sink_overhead(events=60_000, repeats=10)
               for _ in range(2)]
    assert min(samples) < BUDGET, (
        "disabled-instrumentation overhead "
        + ", ".join(f"{sample:.1%}" for sample in samples)
        + f" >= {BUDGET:.0%}")
