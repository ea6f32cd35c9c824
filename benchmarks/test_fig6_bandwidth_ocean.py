"""Figure 6: bandwidth adaptivity on ocean.

Runtime of PATCH-All and PATCH-All-NonAdaptive vs link bandwidth,
normalized to DIRECTORY at the same bandwidth.  Paper claims:

* with plentiful bandwidth, both PATCH variants outperform DIRECTORY;
* as bandwidth shrinks, the non-adaptive variant degrades sharply while
  best-effort PATCH-All stays at or better than DIRECTORY ("do no harm").
"""

from repro.bench import FULL_SCALE

BW_POINTS = FULL_SCALE.bw_points


def test_fig6_bandwidth_ocean(tables):
    series = tables["fig6_bandwidth_ocean"][1]["series"]

    # Plentiful bandwidth: both variants at least match Directory.
    assert series["PATCH-All"][8.0] <= 1.02
    assert series["PATCH-All-NA"][8.0] <= 1.02
    # Scarce bandwidth: the non-adaptive variant falls behind Directory.
    # (Our closed-loop single-outstanding-miss cores self-throttle, so the
    # collapse is milder than the paper's ~1.4x.)
    assert series["PATCH-All-NA"][0.3] > 1.01
    # ... while best-effort PATCH-All keeps the do-no-harm guarantee
    # (small tolerance for simulation noise).
    for bandwidth in BW_POINTS:
        assert series["PATCH-All"][bandwidth] <= 1.05, bandwidth
    # The adaptive variant strictly beats the non-adaptive one when
    # bandwidth is scarce.
    assert series["PATCH-All"][0.3] < series["PATCH-All-NA"][0.3]
    assert series["PATCH-All"][0.6] < series["PATCH-All-NA"][0.6]
    # The non-adaptive penalty shrinks as bandwidth grows (monotone trend
    # between the extremes).
    assert series["PATCH-All-NA"][0.3] > series["PATCH-All-NA"][8.0]
