"""Ablations beyond the paper's main grid.

These probe the design choices PATCH's Section 5.2 calls out:

* tenure-timeout multiplier (the paper picks 2x the average round trip);
* best-effort drop age (the paper picks 100 cycles);
* the post-deactivation direct-request-ignore window;
* the migratory-sharing optimization.

Their grids are :func:`repro.bench.ablation_specs`: ``oltp`` at 16 cores
x 100 references per core, seed 1.
"""

from repro.bench import FULL_SCALE

CORES = FULL_SCALE.bw_cores
REFS = FULL_SCALE.bw_refs


def test_ablation_tenure_timeout(tables):
    by_label = tables["ablation_tenure_timeout"][1]["runs"]
    base = by_label["x2.0"]
    # Aggressive timeouts discard more tokens than the paper's 2x choice.
    assert (by_label["x0.5"].cache_stats.get("probation_discards", 0)
            >= by_label["x8.0"].cache_stats.get("probation_discards", 0))
    # All settings complete and stay within a sane band of each other.
    for label, result in by_label.items():
        assert result.runtime_cycles < 3 * base.runtime_cycles


def test_ablation_drop_age(tables):
    runs = tables["ablation_drop_age"][1]["runs"]
    # With plentiful bandwidth the drop age barely matters (nothing
    # queues long enough); all variants complete in a tight band.
    cycles = [result.runtime_cycles for result in runs.values()]
    assert max(cycles) / min(cycles) < 1.1


def test_ablation_deactivation_window(tables):
    by_label = tables["ablation_deactivation_window"][1]["runs"]
    assert by_label["window on"].cache_stats.get(
        "direct_ignored_window", 0) > 0
    assert by_label["window off"].cache_stats.get(
        "direct_ignored_window", 0) == 0


def test_ablation_migratory_optimization(tables):
    """Directory-side migratory detection on/off, measured on DIRECTORY
    (the token protocols' responder policy handles M-state transfers)."""
    for label, result in tables["ablation_migratory"][1]["runs"].items():
        assert result.total_references == CORES * REFS


def test_ablation_bash_vs_best_effort(tables):
    """Issue-time all-or-nothing throttling (BASH [22]) vs PATCH's
    delivery-time best-effort adaptivity, under scarce bandwidth.

    The paper argues (Section 6) that BASH's intermittent congestion can
    fall below directory performance, while deprioritized best-effort
    requests cannot; both should converge when bandwidth is plentiful.
    """
    normalized = tables["ablation_bash_vs_best_effort"][1]["normalized"]
    # Both adaptive schemes stay sane; best-effort keeps do-no-harm.
    assert normalized[(0.6, "PATCH-All")] <= 1.08
    assert normalized[(16.0, "PATCH-All")] <= 1.0
    assert normalized[(16.0, "PATCH-All-BASH")] <= 1.02
