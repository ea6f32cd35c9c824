"""Timeline tracing: recorder shapes, file targets, and bit-identity."""

import json

from repro.config import SystemConfig
from repro.exec import comparable_result_dict, make_cell
from repro.exec.cells import cell_slug, execute_cell
from repro.obs.timeline import (KERNEL_BUCKET_CYCLES, TimelineRecorder,
                                timeline_path, timeline_target)

BASE = SystemConfig(num_cores=4)


# ---------------------------------------------------------------------------
# The recorder in isolation
# ---------------------------------------------------------------------------

def test_recorder_emits_the_three_lane_kinds():
    rec = TimelineRecorder(label="cell-under-test")
    rec.kernel_tick(10)
    rec.kernel_tick(KERNEL_BUCKET_CYCLES + 1)
    rec.link_busy(0, 1, start=5, duration=8, msg_class="data",
                  size_bytes=64)
    rec.message("req", src=2, dests=[0, 1], time=5, size_bytes=8)
    doc = rec.to_json_dict()
    events = doc["traceEvents"]
    by_phase = {}
    for event in events:
        by_phase.setdefault(event["ph"], []).append(event)

    # Metadata names the process and every lane.
    assert by_phase["M"][0]["args"]["name"] == "cell-under-test"
    lane_names = {e["args"]["name"] for e in by_phase["M"]
                  if e["name"] == "thread_name"}
    assert lane_names == {"link 0->1", "msg req"}

    # Kernel density: one counter sample per touched bucket, tid 0.
    counters = by_phase["C"]
    assert [(e["ts"], e["args"]["dispatched"]) for e in counters] == \
        [(0, 1), (KERNEL_BUCKET_CYCLES, 1)]
    assert all(e["tid"] == 0 for e in counters)

    # Link occupancy: a complete event with duration and size.
    (busy,) = by_phase["X"]
    assert busy == {"name": "data", "ph": "X", "ts": 5, "dur": 8,
                    "pid": 0, "tid": busy["tid"],
                    "args": {"size_bytes": 64}}

    # Protocol message: an instant event carrying routing args.
    (msg,) = by_phase["i"]
    assert msg["args"] == {"src": 2, "dests": [0, 1], "size_bytes": 8}
    assert msg["tid"] != busy["tid"]  # distinct lanes

    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["cycles_per_us"] == 1


def test_recorder_reuses_lanes_and_reserves_tid_zero():
    rec = TimelineRecorder()
    rec.link_busy(0, 1, 0, 1, "data", 1)
    rec.link_busy(0, 1, 5, 1, "data", 1)
    rec.link_busy(1, 0, 0, 1, "data", 1)
    tids = {e["tid"] for e in rec.to_json_dict()["traceEvents"]
            if e["ph"] == "X"}
    assert len(tids) == 2       # one lane per directed link
    assert 0 not in tids        # tid 0 belongs to the kernel counter


def test_write_produces_loadable_json(tmp_path):
    rec = TimelineRecorder(label="x")
    rec.kernel_tick(0)
    path = rec.write(tmp_path / "trace.json")
    assert json.loads(path.read_text())["traceEvents"]


# ---------------------------------------------------------------------------
# Target resolution
# ---------------------------------------------------------------------------

def test_timeline_target_reads_env(monkeypatch):
    assert timeline_target() is None
    monkeypatch.setenv("REPRO_TIMELINE", "traces")
    assert timeline_target() == "traces"


def test_json_target_is_the_exact_file(tmp_path):
    target = tmp_path / "deep" / "run.json"
    path = timeline_path(str(target), "slug")
    assert path == target
    assert target.parent.is_dir()  # created on demand


def test_directory_target_gets_one_file_per_slug(tmp_path):
    target = tmp_path / "traces"
    path = timeline_path(str(target), "cell-a")
    assert path == target / "cell-a.json"
    assert target.is_dir()


# ---------------------------------------------------------------------------
# End to end through execute_cell
# ---------------------------------------------------------------------------

def test_execute_cell_writes_a_trace_per_cell(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TIMELINE", str(tmp_path / "traces"))
    cell = make_cell(BASE, "microbench", 12, seed=1)
    execute_cell(cell)
    trace = tmp_path / "traces" / f"{cell_slug(cell)}.json"
    doc = json.loads(trace.read_text())
    phases = {event["ph"] for event in doc["traceEvents"]}
    # A real run exercises every lane kind.
    assert {"M", "C", "X", "i"} <= phases
    assert doc["otherData"]["cell"] == cell_slug(cell)


def test_tracing_leaves_results_bit_identical(tmp_path, monkeypatch):
    cell = make_cell(BASE, "producer-consumer", 15, seed=3)
    bare = comparable_result_dict(execute_cell(cell))
    monkeypatch.setenv("REPRO_TIMELINE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_OBS", "1")
    traced = comparable_result_dict(execute_cell(cell))
    assert traced == bare
