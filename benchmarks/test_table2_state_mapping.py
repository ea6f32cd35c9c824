"""Table 2: the MOESI <-> token-count correspondence, regenerated from
the implementation and checked cell by cell."""

from repro.bench import TABLE2_TOKENS as T
from repro.coherence.states import CacheState, state_from_tokens
from repro.coherence.tokens import TokenCount

EXPECTED = [
    ["M", "All", "Dirty"],
    ["O", "Some", "Dirty"],
    ["E", "All", "Clean"],
    ["F", "Some", "Clean"],
    ["S", "Some", "No"],
    ["I", "None", "No"],
]


def test_table2_state_mapping(tables):
    assert tables["table2_state_mapping"][1]["rows"] == EXPECTED


def test_table2_exhaustive_consistency():
    """Every legal holding maps to exactly the Table-2 row it belongs to."""
    checked = 0
    for count in range(T + 1):
        for owner in (False, True):
            if owner and count == 0:
                continue
            for dirty in ((False, True) if owner else (False,)):
                tokens = TokenCount(count, owner, dirty)
                state = state_from_tokens(tokens, T, True)
                if count == 0:
                    assert state is CacheState.I
                elif owner and count == T:
                    assert state is (CacheState.M if dirty
                                     else CacheState.E)
                elif owner:
                    assert state is (CacheState.O if dirty
                                     else CacheState.F)
                else:
                    assert state is CacheState.S
                checked += 1
    assert checked == 3 * T + 1
