"""CLI surface of the service work: list, status errors, submit.

``repro study submit`` must print the byte-identical stdout table a
local ``repro study run`` prints — that contract is asserted here by
literally diffing the two captures.
"""

import json

import pytest

from repro.cli import main

from tests.service.conftest import tiny_spec


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """A writable manifest/cache root for the CLI (the suite-wide
    conftest disables caching; these commands need it)."""
    root = tmp_path / "cli-cache"
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    return root


def _write_spec(tmp_path, name="svc-cli", seeds=(1, 2)):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(tiny_spec(name=name,
                                         seeds=seeds).to_json_dict()))
    return str(path)


def test_study_list_empty_then_after_run(cache_env, tmp_path, capsys):
    assert main(["study", "list"]) == 0
    assert "no recorded studies" in capsys.readouterr().out

    spec_path = _write_spec(tmp_path)
    assert main(["study", "run", spec_path]) == 0
    capsys.readouterr()
    assert main(["study", "list"]) == 0
    captured = capsys.readouterr()
    assert "svc-cli" in captured.out
    assert "2/2" in captured.out


def test_study_status_missing_manifest_names_expected_path(
        cache_env, tmp_path, capsys):
    spec_path = _write_spec(tmp_path, name="svc-nostatus")
    assert main(["study", "status", spec_path]) == 0
    out = capsys.readouterr().out
    assert "no recorded progress" in out
    assert str(cache_env) in out  # the expected manifest path


def test_study_status_corrupt_manifest_is_a_pointed_error(
        cache_env, tmp_path, capsys):
    spec_path = _write_spec(tmp_path, name="svc-corrupt")
    assert main(["study", "run", spec_path]) == 0
    capsys.readouterr()
    manifests = list((cache_env / "studies").glob("*.json"))
    assert len(manifests) == 1
    manifests[0].write_text("{definitely not json")

    assert main(["study", "status", spec_path]) == 2
    err = capsys.readouterr().err
    assert str(manifests[0]) in err
    assert "delete it" in err
    # `study list` survives the same corruption, reporting it aside.
    assert main(["study", "list"]) == 0
    captured = capsys.readouterr()
    assert "corrupt manifest" in captured.err
    assert str(manifests[0]) in captured.err


def test_study_submit_stdout_identical_to_local_run(
        cache_env, tmp_path, capsys, live_server):
    _, url = live_server
    spec_path = _write_spec(tmp_path, name="svc-submit", seeds=(1, 2, 3))
    assert main(["study", "run", spec_path, "--no-cache"]) == 0
    local_out = capsys.readouterr().out

    assert main(["study", "submit", spec_path, "--server", url]) == 0
    captured = capsys.readouterr()
    assert captured.out == local_out  # byte-identical table
    assert "[service] study" in captured.err

    # Resubmission: every cell is a cache hit, same table again.
    assert main(["study", "submit", spec_path, "--server", url]) == 0
    captured = capsys.readouterr()
    assert captured.out == local_out
    # The [service] line reports this submission's all-hits view; the
    # [cache] epilogue keeps the original execution accounting.
    assert "(3 cached, 0 shared, 0 queued)" in captured.err


def test_study_submit_no_wait_prints_id(cache_env, tmp_path, capsys,
                                        live_server):
    _, url = live_server
    spec_path = _write_spec(tmp_path, name="svc-nowait")
    assert main(["study", "submit", spec_path, "--server", url,
                 "--no-wait"]) == 0
    captured = capsys.readouterr()
    study_id = captured.out.strip()
    assert len(study_id) == 16 and all(c in "0123456789abcdef"
                                       for c in study_id)


def test_study_submit_unreachable_server_is_error_2(cache_env, tmp_path,
                                                    capsys):
    spec_path = _write_spec(tmp_path, name="svc-down")
    assert main(["study", "submit", spec_path, "--server",
                 "http://127.0.0.1:9"]) == 2
    assert "cannot reach" in capsys.readouterr().err


def test_serve_load_writes_service_block(cache_env, tmp_path, capsys):
    out = tmp_path / "bench_results.json"
    out.write_text(json.dumps({"engine_perf": {"kept": True}}))
    assert main(["serve-load", "--studies", "4", "--clients", "2",
                 "--window", "2", "--refs", "4", "--jobs", "2",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "service load: 4 studies" in captured.out
    report = json.loads(out.read_text())
    assert report["engine_perf"] == {"kept": True}  # preserved
    assert report["service"]["unique_cells_executed"] == 5  # 4+2-1
    assert report["service"]["failures"] == []
