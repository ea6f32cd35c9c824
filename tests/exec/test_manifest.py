"""Study manifests on disk: canonical bytes and a lossless reload."""

import io
import json

from repro.api import StudySpec
from repro.exec import execute_cell
from repro.exec.manifest import ManifestStore


def _spec():
    return StudySpec.from_json_dict({
        "spec_schema": 2, "name": "manifest-bytes",
        "base_config": {"num_cores": 2},
        "workload": "microbench", "references_per_core": 6,
        "seeds": [1, 2, 3], "axes": [],
    })


def test_saved_manifest_is_the_sorted_json_of_its_dict(tmp_path):
    """A manifest is written as ``json.dumps(..., sort_keys=True)``,
    the same bytes ``json.dump`` streams, and loads back equal."""
    spec = _spec()
    store = ManifestStore(tmp_path)
    manifest = store.open(spec, "test-version", resume=False)
    cells = spec.cells()
    manifest.record_result(0, execute_cell(cells[0]), fresh=True)
    manifest.mark(1, "failed", error="boom")
    path = store.save(manifest)

    data = manifest.to_json_dict()
    streamed = io.StringIO()
    json.dump(data, streamed, sort_keys=True)
    written = path.read_text(encoding="utf-8")
    assert written == json.dumps(data, sort_keys=True) == streamed.getvalue()
    assert store.load(manifest.digest).to_json_dict() == data
