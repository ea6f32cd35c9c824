"""Regenerate every committed study spec in this directory.

The committed JSON files are the declarative form of the paper's
figure grids (see docs/API.md).  They are built by the same spec
builders the `repro bench` figure suite executes, so
``tests/api/test_example_specs.py`` asserts byte-for-byte agreement —
if a grid changes, rerun::

    PYTHONPATH=src python examples/specs/regen.py

and commit the rewritten files.
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.api import StudySpec
from repro.bench import (FULL_SCALE, bandwidth_spec, encoding_spec,
                         fig4_spec, scalability_spec, scenario_spec)

SPEC_DIR = os.path.dirname(os.path.abspath(__file__))


def fig4_smoke_spec() -> StudySpec:
    """The Figure-4 grid (all six paper configurations) at a scale that
    runs in seconds — the CI spec-smoke study, and the grid the
    equality test replays against hand-assembled cells."""
    smoke = replace(FULL_SCALE, fig4_workloads=("jbb", "oltp"),
                    fig4_cores=4, fig4_refs=25, fig4_seeds=(1, 2))
    return replace(fig4_spec(smoke), name="fig4-smoke",
                   description="Figure-4 grid at smoke scale: six "
                               "configs x two workloads x two seeds")


#: file name -> builder producing the committed spec.
SPEC_BUILDERS = {
    "fig4_smoke.json": fig4_smoke_spec,
    "fig4_paper.json": lambda: fig4_spec(FULL_SCALE),
    "fig6_bandwidth_ocean.json": lambda: bandwidth_spec("ocean",
                                                        FULL_SCALE),
    "fig7_bandwidth_jbb.json": lambda: bandwidth_spec("jbb", FULL_SCALE),
    "fig8_scalability.json": lambda: scalability_spec(FULL_SCALE),
    "fig9_coarseness_64p.json": lambda: encoding_spec(64, True,
                                                      FULL_SCALE),
    "scenario_matrix.json": lambda: scenario_spec(FULL_SCALE),
}


def main() -> None:
    for filename, builder in SPEC_BUILDERS.items():
        path = os.path.join(SPEC_DIR, filename)
        spec = builder().validate()
        spec.save(path)
        print(f"wrote {path}: {spec.name} "
              f"({len(spec.keys())} points x {len(spec.seeds)} seeds)")


if __name__ == "__main__":
    main()
