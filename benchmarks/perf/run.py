"""The repository benchmark: one workload at one seed, one JSON line.

Usage, from the repository root::

    python3 benchmarks/perf/run.py --workload torus64-patchall \\
        --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the same ops untraced for half the time and again
traced for the other half, and prints the per-layer metrics.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; a human summary goes to standard error.

``--write-fingerprints`` recomputes ``fingerprints.json``, the digests
every output must match at the default seed.  NOTES.md explains the
workloads, the metrics and their measured spread.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts set-up time
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Per-run scratch space (daemon caches), removed when the run ends.
SCRATCH = ROOT / ".perf_tmp"
#: Set-ups measured per run (this process plus fresh interpreters),
#: and import-speed samples taken after each.
SETUP_SAMPLES = 3
SETUP_REFERENCES = 3
#: No new op starts this many seconds after the process started, so a
#: run ends within its time limit however slow the program is.
HARD_STOP_S = 150.0
#: Windows of the service workload pinned by fingerprints.json.
PINNED_WINDOWS = 1000

sys.path.insert(0, str(HERE))
from perf_core import (DEFAULT_SEED, END_TO_END, PER_LAYER,  # noqa: E402
                       TooFewSamples, load_fingerprints, min_samples,
                       percentile, result_line)
from perf_reference import (IMPORT_REFERENCE_S,  # noqa: E402
                            ReferenceProcess, import_sample, speed_scale)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up times, and exit")
    parser.add_argument("--write-fingerprints", action="store_true",
                        help="recompute fingerprints.json at the "
                             "default seed")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_fingerprints:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program() -> float:
    """Import ``repro`` from the checkout; returns the import time."""
    sys.path.insert(0, str(ROOT / "src"))
    began = time.perf_counter()
    import repro  # noqa: F401
    return time.perf_counter() - began


def setup_sample(args: argparse.Namespace) -> Dict[str, float]:
    """Set up once more in a fresh interpreter."""
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def reported_percentile(ms: List[float], q: float,
                        errors: List[str]) -> float:
    """``percentile``, or the slowest op, recorded as an error, when the
    run has too few samples for the rule."""
    try:
        return percentile(ms, q)
    except TooFewSamples as exc:
        errors.append(f"percentile rule: {exc}")
        return max(ms, default=0.0)


def setup_time(samples: List[Dict[str, float]], name: str) -> float:
    """Median of one set-up time over the samples, at the nominal
    import speed measured after each set-up."""
    scale = speed_scale([ref for s in samples for ref in s["references"]],
                        IMPORT_REFERENCE_S)
    return statistics.median(s[name] for s in samples) * scale


def end_to_end(phase: Any, samples: List[Dict[str, float]],
               errors: List[str]) -> Dict[str, float]:
    ms = [latency * 1000 for latency in phase.scaled_latencies()]
    return {
        "setup_s": setup_time(samples, "setup_s"),
        "refs_per_s": phase.work["refs"] / phase.scaled_elapsed(),
        "op_ms.p50": reported_percentile(ms, 0.5, errors),
        "op_ms.p90": reported_percentile(ms, 0.9, errors),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced: Any, traced: Any, samples: List[Dict[str, float]],
              package_root: Path) -> Dict[str, float]:
    from perf_layers import (PROFILED_LAYERS, cumulative_time,
                             layer_self_times)

    ops = max(1, len(traced.latencies))
    work = traced.work
    profile = traced.profile or {}
    scale = traced.scale
    self_s = {layer: seconds * scale for layer, seconds
              in layer_self_times(profile, package_root).items()}
    timers = traced.timers

    def per_op_ms(seconds: float) -> float:
        return 1000 * seconds / ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def median(samples: List[float]) -> float:
        return statistics.median(samples) if samples else 0.0

    values = {
        "setup.import_s": setup_time(samples, "import_s"),
        "setup.prepare_s": setup_time(samples, "prepare_s"),
        "sim.events": work["events"] / ops,
        "sim.ns_per_event": ratio(1e9 * self_s.get("sim", 0.0),
                                  work["events"]),
        "interconnect.bytes": work["bytes"] / ops,
        "protocols.misses": work["misses"] / ops,
        "protocols.us_per_miss": ratio(1e6 * self_s.get("protocols", 0.0),
                                       work["misses"]),
        "protocols.direct_useful_ratio":
            ratio(work["token_responses"], work["direct_requests_sent"]),
        "workloads.make_ms": per_op_ms(scale * cumulative_time(
            profile, package_root, "make_workload")),
        "core.build_ms": per_op_ms(scale * cumulative_time(
            profile, package_root, "build_system")),
        "trace.overhead": ratio(median(traced.scaled_latencies()),
                                median(untraced.scaled_latencies())) - 1,
    }
    for layer in PROFILED_LAYERS:
        values[f"{layer}.self_ms"] = per_op_ms(self_s.get(layer, 0.0))
    for name in ("service.submit", "service.wait", "service.fetch",
                 "exec.cache_key", "exec.cache_load", "exec.cache_store",
                 "exec.manifest_save", "api.spec_cells"):
        values[f"{name}_ms"] = per_op_ms(scale * timers.seconds[name])
    values["exec.manifest_saves"] = timers.calls["exec.manifest_save"] / ops
    values["exec.dispatch_ms"] = ratio(
        1000 * scale * timers.seconds["exec.dispatch"],
        timers.calls["exec.dispatch"])
    stats = traced.service_stats
    if stats is None:
        # Each in-process op requests one cell and executes it.
        stats = {"cells_cached": 0, "cells_shared": 0,
                 "cells_executed": traced.attempted}
    requests = (stats["cells_cached"] + stats["cells_shared"]
                + stats["cells_executed"])
    values["exec.cache.hit_ratio"] = ratio(stats["cells_cached"], requests)
    values["service.shared_ratio"] = ratio(stats["cells_shared"], requests)
    values["exec.cells_executed"] = ratio(stats["cells_executed"], requests)
    if self_s:
        total = sum(self_s.values())
        shares = ", ".join(f"{layer} {100 * seconds / total:.1f}%"
                           for layer, seconds in sorted(
                               self_s.items(), key=lambda kv: -kv[1]))
        print(f"[trace] self time by layer: {shares}", file=sys.stderr)
    return values


def write_fingerprints() -> int:
    import_program()
    from perf_workloads import WORKLOAD_NAMES, make_workload
    from perf_core import FINGERPRINTS_PATH
    out: Dict[str, Any] = {"seed": DEFAULT_SEED}
    for name in WORKLOAD_NAMES:
        workload = make_workload(name, DEFAULT_SEED, SCRATCH, None)
        if name == "serve-overlap":
            out[name] = workload.reference_digests(PINNED_WINDOWS)
        else:
            out[name] = workload.reference_digests()
        print(f"{name}: {len(out[name])} digests", file=sys.stderr)
    FINGERPRINTS_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.write_fingerprints:
        return write_fingerprints()
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from perf_layers import unmapped
    from perf_workloads import PACKAGE_ROOT, make_workload

    expected = None
    if args.seed == DEFAULT_SEED:
        expected = load_fingerprints()[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=SCRATCH))
    workload = make_workload(args.workload, args.seed, scratch, expected)
    hard_stop = _STARTED + HARD_STOP_S
    try:
        workload.set_up()
        setup_s = time.perf_counter() - _STARTED
        sample = {"setup_s": setup_s, "import_s": import_s,
                  "prepare_s": setup_s - import_s}
        if args.setup_only:
            print(json.dumps(sample))
            return 0
        samples = []
        for index in range(SETUP_SAMPLES):
            if index:
                sample = setup_sample(args)
            sample["references"] = [import_sample()
                                    for _ in range(SETUP_REFERENCES)]
            samples.append(sample)
        with ReferenceProcess() as speed:
            if args.trace:
                untraced = workload.run_phase(args.seconds / 2,
                                              min_samples(0.5), hard_stop,
                                              speed.sample)
                traced = workload.run_phase(args.seconds / 2, 0, hard_stop,
                                            speed.sample,
                                            limit=untraced.attempted,
                                            traced=True)
                phases = [untraced, traced]
                table = PER_LAYER
            else:
                phases = [workload.run_phase(args.seconds, min_samples(0.9),
                                             hard_stop, speed.sample)]
                table = END_TO_END
    finally:
        workload.tear_down()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    errors = workload.setup_errors + [e for p in phases for e in p.errors]
    attempted = len(workload.setup_errors) + sum(p.attempted for p in phases)
    failed = len(errors)
    if args.trace:
        values = per_layer(phases[0], phases[1], samples, PACKAGE_ROOT)
    else:
        values = end_to_end(phases[0], samples, errors)
    for phase, name in zip(phases, ("untraced", "traced")):
        print(f"[{args.workload}] seed={args.seed} {name}: "
              f"{len(phase.latencies)} ops of {phase.attempted} in "
              f"{phase.elapsed:.1f}s, raw p50 "
              f"{1000 * statistics.median(phase.latencies or [0]):.1f} ms, "
              f"speed scale {phase.scale:.3f} from "
              f"{len(phase.references)} reference samples",
              file=sys.stderr)
    print(f"[{args.workload}] set-up raw "
          + ", ".join(f"{s['setup_s']:.3f}s" for s in samples)
          + ", import reference "
          + ", ".join(f"{ref:.3f}s" for s in samples
                      for ref in s["references"])
          + f"; {workload.check.pinned} ops matched committed fingerprints",
          file=sys.stderr)
    missing = unmapped(PACKAGE_ROOT)
    if missing:
        print(f"[trace] no layer for {', '.join(missing)}: add them to "
              f"perf_layers.LAYER_OF", file=sys.stderr)
    for error in errors[:10]:
        print(f"[failed] {error}", file=sys.stderr)
    print(result_line(not errors, attempted, failed, values, table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
