"""Message tracing: sequence-level protocol assertions."""

import pytest

from repro import make_workload
from repro.coherence.messages import MsgType
from repro.exec import comparable_result_dict
from repro.trace import MessageTracer, sequence_matches
from tests.helpers import AccessDriver, make_system


def traced_system(protocol="directory", predictor="none", block=None,
                  **overrides):
    system = make_system(protocol, cores=4, predictor=predictor,
                         **overrides)
    tracer = MessageTracer(system, block=block)
    return system, tracer


# ---------------------------------------------------------------------------
# Exact protocol sequences
# ---------------------------------------------------------------------------

def test_directory_cold_read_sequence():
    system, tracer = traced_system(block=100)
    AccessDriver(system).access(0, 100, is_write=False)
    types = tracer.message_types()
    # request -> memory data -> deactivation, nothing else.
    assert types == [MsgType.GETS, MsgType.DATA, MsgType.DEACT]


def test_directory_sharing_read_is_three_hop_sequence():
    system, tracer = traced_system(block=100)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    tracer.records.clear()
    driver.access(1, 100, is_write=False)
    types = tracer.message_types()
    assert sequence_matches(types, [MsgType.GETS, MsgType.FWD_GETS,
                                    MsgType.DATA, MsgType.DEACT])


def test_directory_write_to_shared_sends_invalidations():
    system, tracer = traced_system(block=100)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=False)   # E at 0
    driver.access(1, 100, is_write=False)   # F at 1, S at 0
    driver.access(2, 100, is_write=False)   # F at 2, S at 0/1
    tracer.records.clear()
    driver.access(3, 100, is_write=True)
    types = tracer.message_types()
    assert MsgType.INV in types
    acks = tracer.filter(mtype=MsgType.ACK)
    invs = tracer.filter(mtype=MsgType.INV)
    assert sum(len(r.dests) for r in invs) == len(acks)


def test_patch_direct_miss_completes_before_forward_response():
    """A 2-hop PATCH miss: the direct request's data response arrives
    before anything the home forwards."""
    system, tracer = traced_system("patch", predictor="all", block=100)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.drain(60_000)
    tracer.records.clear()
    driver.access(1, 100, is_write=False)
    types = tracer.message_types()
    assert types[0] in (MsgType.GETS, MsgType.DIRECT_GETS)
    assert MsgType.DIRECT_GETS in types
    # The data response to the direct request comes from the owner
    # (core 0), not from the home's forward.
    data = tracer.filter(mtype=MsgType.DATA)
    assert data and data[0].src == 0


def test_patch_miss_transaction_ends_with_deact():
    system, tracer = traced_system("patch", predictor="none", block=100)
    AccessDriver(system).access(2, 100, is_write=True)
    txn = tracer.records[0].txn_id
    transaction = tracer.transaction(txn)
    assert transaction[0].mtype is MsgType.GETM
    assert transaction[-1].mtype is MsgType.DEACT


def test_tokenb_miss_is_broadcast():
    system, tracer = traced_system("tokenb", block=100)
    AccessDriver(system).access(0, 100, is_write=True)
    request = tracer.records[0]
    assert request.mtype is MsgType.GETM
    assert set(request.dests) == {0, 1, 2, 3}


def test_best_effort_priority_visible_in_trace():
    from repro.interconnect.message import Priority
    system, tracer = traced_system("patch", predictor="all", block=100)
    AccessDriver(system).access(0, 100, is_write=True)
    directs = tracer.filter(mtype=MsgType.DIRECT_GETM)
    assert directs
    assert all(r.priority is Priority.BEST_EFFORT for r in directs)
    assert "[BE]" in directs[0].format()


# ---------------------------------------------------------------------------
# Tracer mechanics
# ---------------------------------------------------------------------------

def test_block_filter():
    system, tracer = traced_system(block=100)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=False)
    driver.access(0, 200, is_write=False)
    assert all(r.block == 100 for r in tracer.records)


def test_filter_by_src_and_predicate():
    system, tracer = traced_system(block=100)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    from_zero = tracer.filter(src=0)
    assert from_zero
    heavy = tracer.filter(predicate=lambda r: r.has_data)
    assert all(r.has_data for r in heavy)


def test_capacity_bounds_recording():
    system, tracer = traced_system()
    tracer.capacity = 2
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=False)
    driver.access(0, 200, is_write=False)
    assert len(tracer.records) == 2
    assert tracer.dropped_records > 0


def test_detach_stops_tracing():
    system, tracer = traced_system()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=False)
    seen = list(tracer.records)
    assert seen
    tracer.detach()
    driver.access(1, 200, is_write=False)
    assert tracer.records == seen


def test_tracer_records_on_a_random_delay_system():
    system = make_system("directory", cores=4, adversarial=True,
                         net_seed=3)
    tracer = MessageTracer(system, block=100)
    AccessDriver(system).access(0, 100, is_write=False)
    assert tracer.message_types() == [MsgType.GETS, MsgType.DATA,
                                      MsgType.DEACT]
    assert all(r.time >= 0 for r in tracer.records)


@pytest.mark.parametrize("adversarial", [False, True],
                         ids=["switched", "random-delay"])
def test_tracing_leaves_results_bit_identical(adversarial):
    def build():
        return make_system("patch", cores=4, predictor="all",
                           workload=make_workload("microbench",
                                                  num_cores=4, seed=2),
                           references=30, adversarial=adversarial,
                           net_seed=5)

    bare = comparable_result_dict(build().run())
    system = build()
    tracer = MessageTracer(system)
    assert comparable_result_dict(system.run()) == bare
    assert tracer.records


def test_format_renders_lines():
    system, tracer = traced_system(block=100)
    AccessDriver(system).access(0, 100, is_write=True)
    text = tracer.format()
    assert "GETM" in text
    assert "blk=100" in text


def test_sequence_matches_subsequence_semantics():
    types = [MsgType.GETS, MsgType.ACK, MsgType.DATA, MsgType.DEACT]
    assert sequence_matches(types, [MsgType.GETS, MsgType.DATA])
    assert not sequence_matches(types, [MsgType.DATA, MsgType.GETS])
