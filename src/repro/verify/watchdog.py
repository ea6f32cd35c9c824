"""Forward-progress watchdog.

Token tenure's whole purpose is broadcast-free forward progress; tests and
long runs use this watchdog to turn a silent stall into a diagnosis.
"""

from __future__ import annotations

from typing import List


class StarvationError(RuntimeError):
    """A request failed to complete within the allotted horizon."""


def describe_stall(system) -> str:
    """Dump the state relevant to a stuck request (for debugging)."""
    lines: List[str] = [f"t={system.sim.now}"]
    for core in system.cores:
        if not core.done:
            lines.append(f"core {core.core_id}: retired {core.retired}/"
                         f"{core.quota}")
    for cache in system.caches:
        mshr = cache.mshr
        if mshr is not None:
            lines.append(
                f"cache {cache.node_id}: MSHR block={mshr.block} "
                f"write={mshr.is_write} tokens={mshr.tokens} "
                f"data={mshr.have_data} activated={mshr.activated} "
                f"retries={mshr.retries} persistent={mshr.persistent} "
                f"age={system.sim.now - mshr.issue_time}")
        zombies = getattr(cache, "zombies", None)
        if zombies:
            lines.append(f"cache {cache.node_id}: zombies "
                         f"{sorted(z.block for z in zombies.values())}")
    for home in system.homes:
        for block, state, payload in home.in_flight():
            lines.append(
                f"home {home.node_id}: block {block} {state} "
                f"{payload.mtype.value} from {payload.requester} "
                f"(txn {payload.txn_id})")
    return "\n".join(lines)


def check_all_done(system, horizon: int) -> None:
    """Raise :class:`StarvationError` if any core has not finished."""
    if all(core.done for core in system.cores):
        return
    raise StarvationError(
        f"cores still stalled after {horizon} cycles:\n"
        + describe_stall(system))
