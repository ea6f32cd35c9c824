#!/usr/bin/env python3
"""Sharing patterns x interconnect topologies: the scenario engine.

Runs every isolated sharing-pattern generator (migratory,
producer-consumer, false-sharing, lock-contention, hot-home) under
Directory and PATCH-All on each registered topology (torus, mesh,
fully-connected), then prints the cross-scenario ablation matrix — the
bench suite's scenario grid (`repro.bench.scenario_spec`) at example
size, rendered like its scenario_matrix.txt.

What to look for:

* migratory / producer-consumer: PATCH's direct requests shortcut the
  directory's three-hop indirection, so the ratio drops below 1.
* false-sharing: ownership ping-pongs continuously — coherence traffic
  without communication, bad for everyone.
* hot-home: one directory slice serializes; fabrics with cheap paths to
  the hot node (fully-connected) soften the pain.
* fabric column: the same protocol gets faster or slower purely from
  routing (mesh has longer center paths; fully-connected has none).

Run:  python examples/sharing_patterns.py
Env:  REPRO_EXAMPLE_QUICK=1 shrinks the grid for CI smoke runs.
"""

import os
from dataclasses import replace

from repro.api import Session
from repro.bench import FULL_SCALE, render_scenarios, scenario_spec
from repro.workloads.patterns import PATTERN_NAMES

QUICK = bool(os.environ.get("REPRO_EXAMPLE_QUICK"))
CORES = 4 if QUICK else 8
REFERENCES = 15 if QUICK else 50
WORKLOADS = PATTERN_NAMES
TOPOLOGIES = ("torus", "mesh") if QUICK else ("torus", "mesh",
                                              "fully-connected")


def main() -> None:
    print(f"=== scenario matrix: {len(WORKLOADS)} sharing patterns x "
          f"{len(TOPOLOGIES)} topologies, {CORES} cores ===\n")
    spec = scenario_spec(replace(
        FULL_SCALE, scenario_workloads=WORKLOADS,
        scenario_topologies=TOPOLOGIES, scenario_cores=CORES,
        scenario_refs=REFERENCES, scenario_seeds=(1,)))
    with Session() as session:
        results = session.run(spec).nested()
    text, metrics = render_scenarios(results, WORKLOADS, TOPOLOGIES)
    print(text)

    ratio = metrics["ratio"]
    best = min(ratio, key=ratio.get)
    worst = max(ratio, key=ratio.get)
    print(f"\nPATCH helps most on {best[0]} @ {best[1]} "
          f"(ratio {ratio[best]:.3f}) and least on {worst[0]} @ "
          f"{worst[1]} (ratio {ratio[worst]:.3f}).")
    print("Every cell above is one cached experiment cell: rerunning "
          "this script hits the on-disk result cache.")


if __name__ == "__main__":
    main()
