#!/usr/bin/env python
"""Standalone service load harness — the same engine as `repro serve-load`.

Runs concurrent overlapping study submissions against a fresh
in-process daemon and reports latency percentiles plus dedup/cache-hit
ratios; with ``--out`` the report merges into ``bench_results.json``
under the ``"service"`` key.  Usable without installing the package:

    python benchmarks/service_load.py --studies 24 --clients 8

See docs/SERVICE.md ("Load testing") and
:mod:`repro.service.load` for the harness itself.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.service import load  # noqa: E402 - after the path insert


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--studies", type=int,
                        default=load.DEFAULT_STUDIES)
    parser.add_argument("--clients", type=int,
                        default=load.DEFAULT_CLIENTS)
    parser.add_argument("--window", type=int, default=load.DEFAULT_WINDOW)
    parser.add_argument("--refs", type=int, default=load.DEFAULT_REFS)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="merge the 'service' block into this "
                             "report file (e.g. bench_results.json)")
    args = parser.parse_args(argv)
    report = load.run_service_load(
        studies=args.studies, clients=args.clients, window=args.window,
        refs=args.refs, jobs=args.jobs, cache_dir=args.cache_dir)
    print(load.render_report(report))
    if args.out:
        load.merge_report(report, args.out)
        print(f"service report -> {args.out} (key 'service')")
    return 1 if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
