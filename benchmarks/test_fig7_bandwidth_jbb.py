"""Figure 7: bandwidth adaptivity on jbb (same axes as Figure 6)."""

from repro.bench import FULL_SCALE

BW_POINTS = FULL_SCALE.bw_points


def test_fig7_bandwidth_jbb(tables):
    series = tables["fig7_bandwidth_jbb"][1]["series"]

    # Same qualitative claims as Figure 6.
    assert series["PATCH-All"][8.0] <= 1.02
    assert series["PATCH-All-NA"][8.0] <= 1.02
    for bandwidth in BW_POINTS:
        assert series["PATCH-All"][bandwidth] <= 1.05, bandwidth
    assert series["PATCH-All"][0.3] <= series["PATCH-All-NA"][0.3]
    # Non-adaptive degradation trend from plentiful to scarce bandwidth.
    assert series["PATCH-All-NA"][0.3] > series["PATCH-All-NA"][8.0]
