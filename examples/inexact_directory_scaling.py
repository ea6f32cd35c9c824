#!/usr/bin/env python3
"""Scaling with inexact directory encodings (paper Section 7, Fig. 9/10).

A full-map sharer vector costs one bit per core and stops scaling; coarse
vectors (1 bit per K cores) are cheap but name too many targets.  In
DIRECTORY every *addressed* core acknowledges an invalidation, so coarse
encodings cause ack implosion.  In PATCH only actual token holders
respond, so the same encodings cost almost nothing.

Run:  python examples/inexact_directory_scaling.py [cores]
"""

import sys
from dataclasses import replace

from repro.api import Session
from repro.bench import FULL_SCALE, coarseness_points, encoding_spec
from repro.directory_state.encodings import make_encoding

CORES = 64
REFERENCES = 20


def main() -> None:
    cores = int(sys.argv[1]) if len(sys.argv) > 1 else CORES
    points = coarseness_points(cores)

    print(f"Directory-entry cost at {cores} cores:")
    for coarseness in points:
        encoding = make_encoding(cores, coarseness)
        print(f"  1 bit per {coarseness:>3} cores -> {encoding.bits:>3} "
              "bits/entry")

    print(f"\nRunning microbenchmark sweeps at {cores} cores, "
          "2 bytes/cycle links...\n")
    # The bench suite's bounded-bandwidth Figure-9/10 grid at this
    # core count.
    scale = replace(FULL_SCALE, enc_refs={cores: REFERENCES},
                    enc_table_blocks={cores: 6 * cores})
    with Session() as session:
        sweep = session.run(encoding_spec(cores, True, scale)).nested(
            order=("protocol", "coarseness"))

    labels = [f"1:{k}" for k in points]
    header = "".join(f"  {label:<7}" for label in labels)
    print(f"{'':14}{header}")
    for protocol in ("Directory", "PATCH"):
        per_label = sweep[protocol]
        base_runtime = per_label["1:1"].runtime_mean
        base_traffic = per_label["1:1"].bytes_per_miss_mean
        runtime_cells = "".join(
            f"  {per_label[k].runtime_mean / base_runtime:<7.3f}"
            for k in labels)
        traffic_cells = "".join(
            f"  {per_label[k].bytes_per_miss_mean / base_traffic:<7.2f}"
            for k in labels)
        print(f"{protocol + ' runtime':<14}{runtime_cells}")
        print(f"{protocol + ' traffic':<14}{traffic_cells}")

    print("\nDirectory pays for its false-positive invalidation targets "
          "with acknowledgement traffic that grows with coarseness; "
          "PATCH's token counting elides those acks entirely, so it can "
          "use far cheaper directory encodings at the same performance "
          "(the paper's Section 7 scaling argument).")


if __name__ == "__main__":
    main()
