"""The repository benchmark's traced hooks still reach the service path.

``benchmarks/perf/perf_layers.wrapped`` patches the execution layer's
functions by name to split a ``serve-overlap`` op per layer.  If one of
them is renamed or bypassed, its timer silently reads zero; this test
runs a study through the same calls the benchmark makes and requires
every timer to fire.
"""

import pathlib
import threading

from repro.service import ServiceClient, make_server

from tests.service.conftest import tiny_spec

PERF_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "perf"


def test_traced_hooks_time_every_service_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERF_DIR))
    from perf_layers import Timers, wrapped

    with wrapped(Timers()) as timers:
        server = make_server(port=0, cache_dir=str(tmp_path / "cache"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            study = client.submit(tiny_spec(seeds=(1, 2)))["study"]
            events = [event["event"]
                      for event in client.stream_events(study)]
            assert events[-1] == "study-done"
            assert len(client.result(study).runs) == 2
        finally:
            server.close()
            thread.join(timeout=10)
        assert not thread.is_alive()
    assert {"exec.cache_key", "exec.cache_load", "exec.cache_store",
            "exec.manifest_save", "api.spec_cells",
            "exec.dispatch"} <= set(timers.calls)
