"""Figure 4: normalized runtime of Directory, PATCH-{None, Owner,
Broadcast-If-Shared, All} and Token Coherence on the five workloads.

Paper claims checked (Section 8.2/8.3):
* PATCH-None performs like DIRECTORY (no common-case penalty from token
  counting + token tenure);
* PATCH-All outperforms DIRECTORY (22% oltp / 19% apache / 14% average in
  the paper's 64-core setup);
* PATCH-Owner sits between None and All;
* Broadcast-If-Shared is close to PATCH-All.
"""

from repro.bench import FULL_SCALE

FIG4_WORKLOADS = FULL_SCALE.fig4_workloads


def test_fig4_runtime(tables):
    _, metrics = tables["fig4_runtime"]
    geo, normalized_by_workload = metrics["geo"], metrics["normalized"]

    for workload in FIG4_WORKLOADS:
        normalized = normalized_by_workload[workload]
        # PATCH-None ~= Directory: no common-case tenure penalty.
        assert abs(normalized["PATCH-None"] - 1.0) < 0.08, workload
    # PATCH-All beats Directory overall, most on the commercial workloads.
    assert geo["PATCH-All"] < 0.97
    assert normalized_by_workload["oltp"]["PATCH-All"] < 0.96
    assert normalized_by_workload["apache"]["PATCH-All"] < 0.96
    # Owner sits between None and All on average.
    assert geo["PATCH-All"] <= geo["PATCH-Owner"] <= geo["PATCH-None"] + 0.02
    # Broadcast-If-Shared tracks PATCH-All closely (paper: within 4%).
    assert abs(geo["Broadcast-If-Shared"] - geo["PATCH-All"]) < 0.06
    # Token coherence is in the same performance class as PATCH-All
    # (broadcast helps at this small scale).
    assert geo["Token Coherence"] < 1.0
