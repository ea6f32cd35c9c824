"""Figure 8: scalability on the microbenchmark, 2-bytes/cycle links.

Paper claims:
* PATCH-All-NonAdaptive beats DIRECTORY at small core counts but falls
  sharply behind at large ones (guaranteed broadcast does not scale);
* best-effort PATCH-All matches the non-adaptive variant at small scale
  AND Directory's scalability at large scale (runtime never much worse
  than Directory);
* direct requests keep paying off well past small systems.

Scale note: the paper sweeps 4..512 cores; ``FULL_SCALE`` sweeps
4..256, with per-core reference quotas shrinking as N grows.  A 512-core
row is affordable now (one 512-core PATCH-All cell at 6 references per
core took 10.8 s on a 2-vCPU Xeon VM) but would change the committed
table, so it waits for a change that owns the new row.  Runtimes are
normalized per core count, so the within-N comparison is unaffected.
"""

from repro.bench import FULL_SCALE

SCALE_CORES = FULL_SCALE.scale_cores


def test_fig8_scalability(tables):
    _, metrics = tables["fig8_scalability"]
    na, be = metrics["na"], metrics["be"]

    small = min(SCALE_CORES)
    large = max(SCALE_CORES)
    # Small systems: broadcasting direct requests helps both variants.
    assert be[small] <= 1.0
    assert na[small] <= 1.0
    # Large systems: guaranteed broadcast hurts the non-adaptive variant
    # relative to Directory far more than best-effort PATCH.
    assert na[large] > be[large]
    # Best-effort PATCH preserves Directory's scalability (do no harm).
    assert be[large] <= 1.08
    # The non-adaptive penalty grows with system size.
    assert na[large] > na[small]
