"""The HTTP surface end to end: routes, clients, streams, identity.

Everything runs against a real served socket on an ephemeral port —
the same ThreadingHTTPServer + scheduler pairing ``repro serve``
deploys — so these tests cover the wire, not mocks of it.
"""

import json
import threading
import urllib.request

import pytest

from repro.api import Session, StudySpec
from repro.exec.serialization import comparable_result_dict
from repro.service import ServiceClient
from repro.service.client import ServiceError
from repro.service.server import make_server

from tests.service.conftest import overlapping_pair, tiny_spec

SMOKE_SPEC = "examples/specs/fig4_smoke.json"


def test_health_stats_index_and_404(live_server):
    _, url = live_server
    client = ServiceClient(url)
    assert client.health()["ok"] is True
    stats = client.stats()
    assert stats["submissions"] == 0
    assert "cache" in stats
    assert client.studies() == {"studies": []}
    with pytest.raises(ServiceError) as err:
        client.status("feedfacedeadbeef")
    assert err.value.status == 404
    assert "unknown study" in err.value.message


def test_submit_rejects_bad_json_and_bad_specs(live_server):
    _, url = live_server
    client = ServiceClient(url)
    request = urllib.request.Request(
        f"{url}/studies", data=b"{not json",
        headers={"Content-Type": "application/json"}, method="POST")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request)
    assert err.value.code == 400

    # A schema violation comes back with the pointed SpecError text.
    with pytest.raises(ServiceError) as err:
        client.submit({"spec_schema": 2, "name": "broken", "seeds": [],
                       "axes": []})
    assert err.value.status == 400
    assert "references_per_core" in err.value.message


def test_blocking_client_full_lifecycle_and_events(live_server):
    server, url = live_server
    spec = tiny_spec(seeds=(1, 2, 3))
    client = ServiceClient(url)
    submitted = client.submit(spec)
    study_id = submitted["study"]
    events = list(client.stream_events(study_id))
    result = client.wait(study_id, timeout=60)
    assert len(result.runs) == spec.num_cells()

    # The stream replays the whole life of the study, in seq order,
    # ending with the terminal event.
    assert [e["seq"] for e in events] == list(range(len(events)))
    names = [e["event"] for e in events]
    assert names.count("queued") == spec.num_cells()
    assert names.count("finished") == spec.num_cells()
    assert names[-1] == "study-done" and events[-1]["state"] == "done"
    # ?since= resumes mid-stream instead of replaying.
    tail = list(client.stream_events(study_id, since=events[-1]["seq"]))
    assert [e["event"] for e in tail] == ["study-done"]

    # Status and index agree the study is done.
    assert client.status(study_id)["state"] == "done"
    index = client.studies()["studies"]
    assert [s["study"] for s in index] == [study_id]
    assert server.scheduler.stats()["studies_done"] == 1


def test_result_before_completion_is_409_not_partial_data(tmp_path):
    # An unstarted scheduler pins the study mid-flight deterministically.
    server = make_server(scheduler=None, jobs=1,
                         cache_dir=tmp_path / "cache", autostart=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        study_id = client.submit(tiny_spec())["study"]
        with pytest.raises(ServiceError) as err:
            client.result(study_id)
        assert err.value.status == 409
        assert "still running" in err.value.message
        server.scheduler.start()
        result = client.wait(study_id, timeout=60)
        assert len(result.runs) > 0
    finally:
        server.close()
        thread.join(timeout=10)


def test_http_result_identical_to_local_run_on_fig4_smoke(live_server):
    """The acceptance pin: the full fig4_smoke StudyResult over HTTP is
    field-for-field the local `repro study run` result."""
    _, url = live_server
    spec = StudySpec.load(SMOKE_SPEC)
    remote = ServiceClient(url).run(spec, timeout=300)
    local = Session(jobs=2, no_cache=True).run(spec)
    assert remote.keys == local.keys
    assert remote.spec.to_json_dict() == spec.to_json_dict()
    for theirs, mine in zip(remote.runs, local.runs):
        assert comparable_result_dict(theirs) \
            == comparable_result_dict(mine)


def test_concurrent_http_submissions_share_cells_exactly_once(
        live_server):
    server, url = live_server
    first, second = overlapping_pair(window=4)
    barrier = threading.Barrier(2)
    results = {}

    def submit(spec):
        client = ServiceClient(url)
        barrier.wait()
        submitted = client.submit(spec)
        results[spec.name] = client.wait(submitted["study"], timeout=60)

    threads = [threading.Thread(target=submit, args=(spec,))
               for spec in (first, second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert set(results) == {first.name, second.name}
    from repro.exec import cache_key
    unique = len(set(map(cache_key, first.cells()))
                 | set(map(cache_key, second.cells())))
    assert server.scheduler.cache.stats()["stores"] == unique
    deltas = [results[name].cache_delta for name in sorted(results)]
    assert sum(d["misses"] for d in deltas) == unique
    for spec, delta in zip(sorted((first, second),
                                  key=lambda s: s.name), deltas):
        assert delta["hits"] + delta["misses"] + delta["shared"] \
            == spec.num_cells()


def test_shutdown_rejects_submissions_and_persists_manifests(tmp_path):
    from repro.exec.manifest import ManifestStore, spec_digest
    server = make_server(scheduler=None, jobs=2,
                         cache_dir=tmp_path / "cache")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.port}")
    spec = tiny_spec(seeds=(1, 2))
    study_id = client.submit(spec)["study"]
    client.wait(study_id, timeout=60)
    server.close()
    thread.join(timeout=10)
    # The socket is down and the study's manifest survived, complete.
    with pytest.raises(ServiceError):
        client.health()
    manifest = ManifestStore(tmp_path / "cache").load(spec_digest(spec))
    assert manifest is not None and manifest.complete
