"""Table 4: comparison of forward-progress mechanisms, with the
behavioural columns *measured* from runs rather than asserted by fiat.

========================  ==============  ===========  =========
Mechanism                 Broadcast-free  Reissues?    State
========================  ==============  ===========  =========
Persistent requests       no              yes          P.R. table
(TokenB)
Token tenure (PATCH)      yes             no           sharers set
========================  ==============  ===========  =========

The runs are :func:`repro.bench.contention_storm`: 6 cores, 2 blocks,
on the random-delay network.
"""

from repro.bench import contention_storm


def test_table4_forward_progress(tables):
    metrics = tables["table4_forward_progress"][1]
    (tokenb, tokenb_pr_table), (patch, patch_pr_table) = \
        metrics["tokenb"], metrics["patch"]
    # TokenB needed reissues (and possibly persistent escalation) to make
    # progress under contention; PATCH never reissues a request.
    assert tokenb.cache_stats.get("reissues", 0) > 0
    assert patch.cache_stats.get("reissues", 0) == 0
    assert patch.cache_stats.get("persistent_requests", 0) == 0
    # Per-processor persistent-request tables exist only in TokenB.
    assert tokenb_pr_table
    assert not patch_pr_table


def test_token_tenure_discards_untenured_tokens_without_reissuing():
    """PATCH's mechanism at work: under a storm with long delays, a
    cache whose tokens stay untenured past the timeout sends them to the
    home, and no request is ever reissued.  (Table 4's own storm, seed 5
    with delays up to 60 cycles, discards none.)"""
    patch, _ = contention_storm("patch", seed=4, max_delay=200,
                                drop_prob=0.5)
    assert patch.cache_stats.get("probation_discards", 0) > 0
    assert patch.cache_stats.get("reissues", 0) == 0
    assert patch.cache_stats.get("persistent_requests", 0) == 0


def test_patch_makes_progress_with_all_direct_requests_dropped():
    """The sharpest broadcast-free claim: PATCH completes every request
    even when 100% of its direct requests are discarded."""
    result, _ = contention_storm("patch", drop_prob=1.0)
    assert result.total_references == 6 * 12
    assert result.dropped_direct_requests > 0
