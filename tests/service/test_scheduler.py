"""Scheduler invariants: dedup, exact accounting, failure, shutdown.

``autostart=False`` is the determinism lever: submissions are
registered (and their dedup bookkeeping fixed) before a single cell
executes, so the in-flight-sharing assertions cannot race the
dispatcher.
"""

import threading
import time

import repro.exec.parallel as parallel_mod
from repro.api import Session
from repro.exec import ResultCache, cache_key
from repro.exec.manifest import ManifestStore, spec_digest
from repro.service.scheduler import StudyScheduler

from tests.service.conftest import overlapping_pair, tiny_spec


def _scheduler(tmp_path, autostart=False, jobs=2):
    return StudyScheduler(Session(jobs=jobs, cache_dir=tmp_path / "cache"),
                          autostart=autostart)


def test_overlapping_submissions_share_in_flight_cells(tmp_path):
    """The second study joins the first's queued cells instead of
    enqueueing duplicates, and the shared execution runs once."""
    first, second = overlapping_pair(window=3)
    shared = len(set(map(cache_key, first.cells()))
                 & set(map(cache_key, second.cells())))
    assert shared == 2  # the overlap this test is about

    scheduler = _scheduler(tmp_path)
    rec_a, sub_a = scheduler.submit(first)
    rec_b, sub_b = scheduler.submit(second)
    # Before anything executes: A queued all its cells, B queued only
    # its novel one and joined A's two in-flight cells.
    assert sub_a == {"created": True, "hits": 0, "shared": 0,
                     "queued": first.num_cells()}
    assert sub_b == {"created": True, "hits": 0, "shared": shared,
                     "queued": second.num_cells() - shared}
    assert scheduler.stats()["cells_in_flight"] == \
        first.num_cells() + second.num_cells() - shared

    scheduler.start()
    assert scheduler.wait(rec_a.study_id, timeout=60).state == "done"
    assert scheduler.wait(rec_b.study_id, timeout=60).state == "done"

    # Exactly-once: every unique cell simulated and stored once.
    unique = first.num_cells() + second.num_cells() - shared
    assert scheduler.cache.stats()["stores"] == unique
    assert rec_a.cache_delta == {"hits": 0, "misses": first.num_cells(),
                                 "shared": 0,
                                 "stores": first.num_cells(),
                                 "store_errors": 0}
    assert rec_b.cache_delta == {"hits": 0,
                                 "misses": second.num_cells() - shared,
                                 "shared": shared,
                                 "stores": second.num_cells() - shared,
                                 "store_errors": 0}
    scheduler.stop()


def test_concurrent_submission_threads_dedup_exactly_once(tmp_path):
    """The tests/exec/test_cache_concurrent.py shape, service-side:
    two threads race their POSTs; every shared cell still executes
    exactly once and the per-study deltas partition the grid."""
    first, second = overlapping_pair(window=4)
    scheduler = _scheduler(tmp_path, autostart=True)
    barrier = threading.Barrier(2)
    records = {}

    def submit(spec):
        barrier.wait()
        record, _ = scheduler.submit(spec)
        scheduler.wait(record.study_id, timeout=60)
        records[spec.name] = record

    threads = [threading.Thread(target=submit, args=(spec,))
               for spec in (first, second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    rec_a, rec_b = records[first.name], records[second.name]
    assert rec_a.state == "done" and rec_b.state == "done"

    unique = len(set(map(cache_key, first.cells()))
                 | set(map(cache_key, second.cells())))
    assert scheduler.cache.stats()["stores"] == unique
    # Whatever the interleaving, each study accounts for every one of
    # its cells exactly once across the four buckets, and the two
    # studies' fresh executions sum to the unique cell count.
    for record, spec in ((rec_a, first), (rec_b, second)):
        delta = record.cache_delta
        assert delta["hits"] + delta["misses"] + delta["shared"] \
            == spec.num_cells()
        assert delta["stores"] == delta["misses"]
        assert delta["store_errors"] == 0
    assert rec_a.cache_delta["misses"] + rec_b.cache_delta["misses"] \
        == unique
    scheduler.stop()


def test_resubmission_is_idempotent_and_instant_when_warm(tmp_path):
    spec = tiny_spec(seeds=(1, 2, 3))
    scheduler = _scheduler(tmp_path, autostart=True)
    record, summary = scheduler.submit(spec)
    assert summary["created"] is True
    scheduler.wait(record.study_id, timeout=60)

    again, summary = scheduler.submit(spec)
    assert again is record  # same record, not a re-run
    assert summary == {"created": False, "hits": spec.num_cells(),
                       "shared": 0, "queued": 0}
    scheduler.stop()

    # A brand-new daemon over the same cache dir: the whole study is
    # warm, so submission resolves before returning.
    revived = _scheduler(tmp_path, autostart=False)
    record, summary = revived.submit(spec)
    assert record.state == "done"  # without the dispatcher running
    assert summary == {"created": True, "hits": spec.num_cells(),
                       "shared": 0, "queued": 0}
    assert record.cache_delta["hits"] == spec.num_cells()


def test_results_identical_to_local_session_run(tmp_path):
    from repro.exec.serialization import comparable_result_dict
    spec = tiny_spec(seeds=(1, 2), axes=[
        {"name": "variant", "points": [
            {"label": "dir", "config": {"protocol": "directory",
                                        "predictor": "none"}},
            {"label": "patch", "config": {"protocol": "patch",
                                          "predictor": "all"}}]}])
    local = Session(jobs=1, cache_dir=tmp_path / "local").run(spec)
    scheduler = _scheduler(tmp_path, autostart=True)
    record, _ = scheduler.submit(spec)
    served = scheduler.wait(record.study_id, timeout=60).result
    scheduler.stop()
    assert served.keys == local.keys
    for mine, theirs in zip(local.runs, served.runs):
        assert comparable_result_dict(mine) \
            == comparable_result_dict(theirs)


def test_failed_cell_fails_every_subscribed_study(tmp_path):
    # A schema-valid spec whose execution fails: the trace workload
    # pointed at a file that does not exist.
    from repro.api import StudySpec
    spec = StudySpec.from_json_dict({
        "spec_schema": 2, "name": "svc-bad",
        "base_config": {"num_cores": 2},
        "workload": "trace", "references_per_core": 4,
        "workload_kwargs": {"path": str(tmp_path / "missing.rpt")},
        "seeds": [1],
        "axes": [],
    })
    scheduler = _scheduler(tmp_path, autostart=True)
    record, _ = scheduler.submit(spec)
    scheduler.wait(record.study_id, timeout=60)
    assert record.state == "failed"
    assert "missing.rpt" in (record.error or "")
    # The manifest records the failure for `repro study status`.
    manifest = ManifestStore(scheduler.cache.root).load(
        spec_digest(spec))
    assert manifest is not None
    assert manifest.counts()["failed"] == 1
    # The terminal event closes the stream with the failed state.
    assert record.events[-1]["event"] == "study-done"
    assert record.events[-1]["state"] == "failed"
    scheduler.stop()

    # Resubmission retries a failed study rather than pinning it.
    retry = _scheduler(tmp_path, autostart=False)
    fresh, summary = retry.submit(spec)
    assert summary["created"] is True
    assert fresh.state == "running"


def test_stop_keeps_queued_cells_pending_and_resumable(tmp_path):
    spec = tiny_spec(seeds=(1, 2, 3, 4))
    scheduler = _scheduler(tmp_path, autostart=False)
    record, _ = scheduler.submit(spec)
    scheduler.stop()  # dispatcher never started: nothing executed
    assert record.state == "running"

    # The manifest was persisted at submit with every cell pending, so
    # a plain local resume finishes the interrupted study.
    store = ManifestStore(ResultCache(tmp_path / "cache").root)
    manifest = store.load(spec_digest(spec))
    assert manifest is not None
    assert manifest.counts()["pending"] == spec.num_cells()

    session = Session(jobs=1, cache_dir=tmp_path / "cache")
    result = session.run(spec, resume=True)
    assert len(result.runs) == spec.num_cells()
    manifest = store.load(spec_digest(spec))
    assert manifest.complete


def _count_saves(monkeypatch):
    """Record the digest of every manifest saved from now on."""
    saves = []
    real_save = ManifestStore.save

    def save(self, manifest):
        saves.append(manifest.digest)
        return real_save(self, manifest)

    monkeypatch.setattr(ManifestStore, "save", save)
    return saves


def test_manifest_is_saved_per_batch_not_per_cell(tmp_path, monkeypatch):
    """Saved when the record opens, then once after each batch that
    resolved any of its cells: with one worker a batch is 4 cells, so 8
    cells make 2 batches and 1 + 2 saves (not 1 + 8)."""
    saves = _count_saves(monkeypatch)
    spec = tiny_spec(seeds=range(1, 9))
    scheduler = _scheduler(tmp_path, jobs=1)
    record, _ = scheduler.submit(spec)
    assert len(saves) == 1
    scheduler.start()
    assert scheduler.wait(record.study_id, timeout=60).state == "done"
    scheduler.stop(timeout=60)
    assert saves == [record.study_id] * 3
    manifest = ManifestStore(scheduler.cache.root).load(record.study_id)
    assert manifest.complete


def test_an_all_hit_study_finishes_once(tmp_path):
    """A study whose every cell is a cache hit resolves at submit, and
    the record is finished there once, not again after the loop."""
    spec = tiny_spec(seeds=(1, 2))
    warm = _scheduler(tmp_path, autostart=True)
    record, _ = warm.submit(spec)
    warm.wait(record.study_id, timeout=60)
    warm.stop()

    revived = _scheduler(tmp_path, autostart=False)
    record, _ = revived.submit(spec)
    assert [e["event"] for e in record.events] == \
        ["cached", "cached", "study-done"]
    stats = revived.stats()
    assert stats["studies"] == 1 and stats["studies_done"] == 1
    revived.stop()


def test_a_failed_study_keeps_its_cells_until_the_last_resolves(
        tmp_path, monkeypatch):
    """The failure is saved at once, while cells of the failed study
    are still running; only after its last cell resolves (and the
    batch saves it) does the record drop its per-cell state."""
    spec = tiny_spec(seeds=(1, 2, 3))
    scheduler = _scheduler(tmp_path, jobs=1)
    record, _ = scheduler.submit(spec)
    store = ManifestStore(scheduler.cache.root)
    seen = []
    real_payload = parallel_mod.execute_cell_payload

    def payload(cell):
        if cell.seed == 1:
            raise RuntimeError("boom")
        if cell.seed == 3:
            seen.append((record.state, len(record.cells),
                         record.manifest is not None,
                         store.load(record.study_id).counts()["failed"]))
        return real_payload(cell)

    monkeypatch.setattr(parallel_mod, "execute_cell_payload", payload)
    scheduler.start()
    deadline = time.monotonic() + 60
    while record.remaining and time.monotonic() < deadline:
        time.sleep(0.01)
    scheduler.stop(timeout=60)
    assert seen == [("failed", 3, True, 1)]
    assert record.counts() == {"done": 2, "failed": 1, "pending": 0,
                               "total": 3}
    assert record.cells == [] and record.manifest is None
    assert store.load(record.study_id).counts() == \
        {"done": 2, "pending": 0, "failed": 1}


def _fail_seed_one(monkeypatch, release=None):
    """Seed 1's cell raises; the others wait for ``release`` if given."""
    real_payload = parallel_mod.execute_cell_payload

    def payload(cell):
        if cell.seed == 1:
            raise RuntimeError("boom")
        if release is not None:
            release.wait(60)
        return real_payload(cell)

    monkeypatch.setattr(parallel_mod, "execute_cell_payload", payload)


def _outcomes(events):
    return [(e["event"], e.get("cell")) for e in events
            if e["event"] in ("failed", "finished", "study-done")]


def test_a_failed_study_ends_with_one_study_done(tmp_path, monkeypatch):
    """The cells still in flight at the failure resolve first; then the
    record emits its one terminal event, in the failed state."""
    spec = tiny_spec(seeds=(1, 2, 3))
    scheduler = _scheduler(tmp_path, jobs=1)
    record, _ = scheduler.submit(spec)
    _fail_seed_one(monkeypatch)
    scheduler.start()
    deadline = time.monotonic() + 60
    while not record.ended and time.monotonic() < deadline:
        time.sleep(0.01)
    scheduler.stop(timeout=60)
    assert _outcomes(record.events) == [
        ("failed", 0), ("finished", 1), ("finished", 2),
        ("study-done", None)]
    assert record.events[-1]["state"] == "failed"


def test_a_stream_past_the_failure_gets_the_later_events(tmp_path,
                                                         monkeypatch):
    """``wait`` reports the study failed at its first failure, but a
    stream that has caught up with the ``failed`` event stays open for
    the cells still running, and ends after ``study-done``."""
    spec = tiny_spec(seeds=(1, 2, 3))
    scheduler = _scheduler(tmp_path, jobs=1)
    record, _ = scheduler.submit(spec)
    release = threading.Event()
    _fail_seed_one(monkeypatch, release)
    scheduler.start()
    streamed = []
    try:
        deadline = time.monotonic() + 60
        while (not _outcomes(record.events)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        (failed,) = [e for e in record.events if e["event"] == "failed"]
        assert scheduler.wait(record.study_id, timeout=5).state == "failed"
        seq = failed["seq"] + 1
        threading.Timer(0.2, release.set).start()
        while True:
            fresh = scheduler.events_since(record, seq)
            if not fresh:
                break
            streamed.extend(fresh)
            seq = fresh[-1]["seq"] + 1
    finally:
        release.set()
        scheduler.stop(timeout=60)
    assert _outcomes(streamed) == [("finished", 1), ("finished", 2),
                                   ("study-done", None)]
    assert streamed[-1]["state"] == "failed"


def test_a_fresh_study_keys_each_cell_once(tmp_path, monkeypatch):
    """The key computed at submit serves the in-flight lookup, the
    cache probe at submit, the batch's probe and the store: a fresh
    96-cell study calls ``cache_key`` once per cell, under either name
    it is called by."""
    import repro.exec.cache as cache_module
    import repro.service.scheduler as scheduler_module
    keyed = []
    for module in (cache_module, scheduler_module):
        def counted(cell, *args, _real=module.cache_key, **kwargs):
            keyed.append(cell)
            return _real(cell, *args, **kwargs)
        monkeypatch.setattr(module, "cache_key", counted)
    variants = [{"label": f"v{index}", "config": config}
                for index, config in enumerate(
                    [{"protocol": "directory"}, {"protocol": "tokenb"}]
                    + [{"protocol": "patch", "predictor": predictor}
                       for predictor in ("none", "owner", "all", "group")])]
    spec = tiny_spec(seeds=range(1, 17), refs=2,
                     axes=[{"name": "variant", "points": variants}])
    assert spec.num_cells() == 96
    scheduler = _scheduler(tmp_path, jobs=1)
    record, summary = scheduler.submit(spec)
    assert summary["queued"] == 96
    scheduler.start()
    assert scheduler.wait(record.study_id, timeout=120).state == "done"
    scheduler.stop(timeout=60)
    assert scheduler.cache.stats()["stores"] == 96
    assert sorted(map(repr, keyed)) == sorted(map(repr, spec.cells()))
