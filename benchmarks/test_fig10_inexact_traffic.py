"""Figure 10: traffic per miss under inexact encodings, by message class.

Paper claims:
* DIRECTORY's traffic becomes dominated by acknowledgement messages under
  extreme coarseness (paper: +319% total traffic at 256p single-bit);
* PATCH's acknowledgement elision keeps the growth small (paper: max +32%).
"""

from repro.bench import FULL_SCALE

ENC_CORE_COUNTS = FULL_SCALE.enc_core_counts


def test_fig10_inexact_traffic(tables):
    _, metrics = tables["fig10_inexact_traffic"]
    growth, ack_share = metrics["growth"], metrics["ack_share"]

    largest = max(ENC_CORE_COUNTS)
    single_bit = largest  # coarseness == cores: one bit for all sharers
    # Directory's traffic explodes with coarseness; acks dominate it.
    assert growth[(largest, "Directory", single_bit)] > 2.0
    assert ack_share[(largest, "Directory", single_bit)] > 0.35
    # PATCH's ack elision bounds the growth (paper: max +32%).
    assert growth[(largest, "PATCH", single_bit)] < 1.5
    assert ack_share[(largest, "PATCH", single_bit)] < 0.15
    # The gap widens with core count.
    smaller = min(ENC_CORE_COUNTS)
    assert growth[(largest, "Directory", largest)] > \
        growth[(smaller, "Directory", smaller)] - 0.10
