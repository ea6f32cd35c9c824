"""Figure 9: runtime under inexact (coarse) sharer encodings.

For each core count, runtime of DIRECTORY and PATCH with sharer encodings
from full-map (K=1) to a single bit (K=N), at unbounded and 2-bytes/cycle
link bandwidth, normalized to the protocol's own full-map runtime.

Paper claims:
* with unbounded bandwidth all encodings perform similarly;
* with bounded bandwidth DIRECTORY degrades badly as the encoding gets
  coarser (ack implosion: every addressed core acknowledges);
* PATCH barely degrades (only true token holders respond).
"""

from repro.bench import FULL_SCALE

ENC_CORE_COUNTS = FULL_SCALE.enc_core_counts


def test_fig9_inexact_runtime(tables):
    worst = tables["fig9_inexact_runtime"][1]["worst"]

    largest = max(ENC_CORE_COUNTS)
    # Bounded bandwidth: Directory degrades with coarseness; PATCH stays
    # nearly flat (paper: up to +142% vs +3.6% at 256p single-bit).
    assert worst[(largest, "Directory", True)] > 1.20
    assert worst[(largest, "PATCH", True)] < 1.12
    assert worst[(largest, "Directory", True)] > \
        worst[(largest, "PATCH", True)] + 0.10
    # Directory's degradation grows with core count (scaling claim).
    assert worst[(largest, "Directory", True)] >= \
        worst[(min(ENC_CORE_COUNTS), "Directory", True)] - 0.05
