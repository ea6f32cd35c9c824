"""Scenario matrix: sharing patterns x interconnect topologies.

Beyond the paper's figures: the cross-scenario ablation grid of
``repro.bench.scenario_spec`` (committed as
``examples/specs/scenario_matrix.json``).  Claims checked:

* PATCH-All's advantage is pattern-dependent but never harmful: it beats
  Directory on the indirection-bound patterns (migratory,
  producer-consumer, hot-home) and stays within noise everywhere,
  on every fabric — the "do no harm" property generalized across
  topologies.
* Fabric effects order sensibly for the Directory baseline: the
  contention-free fully-connected fabric is the fastest and the
  non-wrapping mesh is slower than it on every scenario.
"""

from repro.bench import FULL_SCALE, render_scenarios

from _shared import report, scenario_results

WORKLOADS = FULL_SCALE.scenario_workloads
TOPOLOGIES = FULL_SCALE.scenario_topologies


def test_scenario_matrix(benchmark, capsys):
    results = benchmark.pedantic(scenario_results, rounds=1, iterations=1)
    text, ratio, fabric = render_scenarios(results, WORKLOADS, TOPOLOGIES)
    report("scenario_matrix", text, capsys)

    # Every grid cell ran on every fabric.
    assert set(ratio) == {(w, t) for w in WORKLOADS for t in TOPOLOGIES}

    # PATCH's win is pattern-dependent: clear gains where directory
    # indirection dominates...
    for workload in ("migratory", "producer-consumer", "hot-home"):
        assert ratio[(workload, "torus")] < 1.01, workload
    # ... and do-no-harm everywhere, on every topology (false sharing is
    # the worst case: the traffic is pure overhead for every protocol).
    for key, value in ratio.items():
        assert value <= 1.10, key

    # Fabric cost, Directory baseline: torus is the normalization point;
    # the contention-free fully-connected fabric beats it, and the
    # non-wrapping mesh is the slowest fabric on every scenario.
    for workload in WORKLOADS:
        assert fabric[(workload, "torus")] == 1.0
        assert fabric[(workload, "fully-connected")] < 1.0, workload
        assert (fabric[(workload, "mesh")]
                > fabric[(workload, "fully-connected")]), workload
