#!/usr/bin/env python3
"""Best-effort direct requests: PATCH's bandwidth adaptivity (Fig. 6/7).

Sweeps link bandwidth and compares DIRECTORY, PATCH-All with guaranteed
direct requests (non-adaptive), and PATCH-All with best-effort direct
requests.  Prints an ASCII rendition of the paper's Figure 6.

Run:  python examples/bandwidth_adaptivity.py [workload]
"""

import sys
from dataclasses import replace

from repro.api import Session
from repro.bench import FULL_SCALE, bandwidth_spec

BANDWIDTHS = FULL_SCALE.bw_points
CORES = FULL_SCALE.bw_cores
REFERENCES = 80


def bar(value: float, scale: float = 40.0) -> str:
    return "#" * max(1, round(value * scale))


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "ocean"
    print(f"Sweeping link bandwidth on {workload!r} "
          f"({CORES} cores, {REFERENCES} refs/core)...\n")
    # The Figure-6/7 grid of the bench suite, at one seed and a
    # shorter run.
    spec = bandwidth_spec(workload, replace(FULL_SCALE, bw_refs=REFERENCES,
                                            bw_seeds=(1,)))
    with Session() as session:
        sweep = session.run(spec).nested()

    print(f"{'B/1000cy':>9}  {'Directory':>9}  {'PATCH-All-NA':>12}  "
          f"{'PATCH-All':>9}")
    for bandwidth in BANDWIDTHS:
        row = sweep[str(bandwidth)]
        base_rt = row["Directory"].runtime_mean
        na = row["PATCH-All-NA"].runtime_mean / base_rt
        be = row["PATCH-All"].runtime_mean / base_rt
        print(f"{bandwidth * 1000:>9.0f}  {1.0:>9.3f}  {na:>12.3f}  "
              f"{be:>9.3f}")

    print("\nNormalized runtime (each row at its own bandwidth; "
          "D=Directory, N=non-adaptive, B=best-effort):")
    for bandwidth in BANDWIDTHS:
        row = sweep[str(bandwidth)]
        base_rt = row["Directory"].runtime_mean
        na = row["PATCH-All-NA"].runtime_mean / base_rt
        be = row["PATCH-All"].runtime_mean / base_rt
        print(f"  {bandwidth * 1000:>5.0f} D {bar(1.0)}")
        print(f"        N {bar(na)}")
        print(f"        B {bar(be)}")

    drops = sum(run.dropped_direct_requests
                for row in sweep.values()
                for run in row["PATCH-All"].runs)
    print(f"\nBest-effort direct requests dropped across the sweep: {drops}")
    print("With scarce bandwidth the non-adaptive variant pays for its "
          "guaranteed broadcasts; best-effort PATCH sheds them instead "
          "(the 'do no harm' guarantee).")


if __name__ == "__main__":
    main()
