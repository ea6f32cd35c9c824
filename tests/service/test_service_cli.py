"""CLI surface of the service work: list, status errors, submit, serve.

``repro study submit`` must print the byte-identical stdout table a
local ``repro study run`` prints — that contract is asserted here by
literally diffing the two captures.  ``repro serve`` runs as a real
child process, so its bind, signal handlers and shutdown are covered
too.
"""

import json
import os
import pathlib
import re
import select
import signal
import subprocess
import sys
import urllib.request

import pytest

from repro.cli import main
from repro.service import ServiceClient

from tests.service.conftest import tiny_spec

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


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



def test_serve_process_serves_results_and_stops_on_sigterm(tmp_path,
                                                           capsys):
    """`python -m repro serve` end to end, as a deployment runs it."""
    cache = tmp_path / "serve-cache"
    spec_path = _write_spec(tmp_path, name="svc-process", seeds=(1, 2, 3))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "1", "--cache-dir", str(cache)],
        stderr=subprocess.PIPE, text=True, env=env)
    try:
        assert select.select([proc.stderr], [], [], 30)[0], "no banner"
        banner = proc.stderr.readline()
        match = re.search(r"listening on (http://\S+)", banner)
        assert match, f"no listening banner: {banner!r}"
        url = match.group(1)
        client = ServiceClient(url)
        spec = json.loads(pathlib.Path(spec_path).read_text())
        study = client.submit(spec)["study"]
        client.wait(study, timeout=60)
        fetched = []
        for _ in range(2):
            with urllib.request.urlopen(f"{url}/studies/{study}/result",
                                        timeout=30) as reply:
                fetched.append(reply.read())
        assert fetched[0] == fetched[1]
        result = json.loads(fetched[0])
        assert len(result["runs"]) == 3 and result["wire_schema"] == 1

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert "study manifests persisted" in proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()

    assert main(["study", "status", spec_path,
                 "--cache-dir", str(cache)]) == 0
    assert ("3 done, 0 pending, 0 failed of 3 cells"
            in capsys.readouterr().out)
