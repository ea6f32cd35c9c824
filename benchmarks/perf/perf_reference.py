"""The speed reference: a fixed pure-Python loop in a helper process.

The machine this benchmark runs on changes speed by tens of percent
over seconds to minutes, so the benchmark scales the op times it
prints to one nominal speed.  It measures the current speed with a
loop that uses no code of the program but behaves like the simulator's
hot path: random reads and writes across a large graph of small
objects, dict lookups and heap operations.  A loop whose data fit in
the processor's caches tracked the simulator's slowdowns poorly; this
one tracks the cell workloads to a few percent (NOTES.md has the
measurements).  A sample taken straight after another one runs with
warm caches and reads about a quarter faster, so samples are only
taken after at least one op.

The loop runs in a helper process (this file run as a script), so its
objects neither add to the benchmark process's peak memory nor slow
that process's garbage collector.  The benchmark asks for one sample
at a time, only while its own ops are idle.
"""

import gc
import heapq
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

#: Median milliseconds of one sample on the machine the benchmark calls
#: nominal; :func:`speed_scale` maps host times to that speed.
REFERENCE_MS = 10.0

#: Standard-library modules a fresh interpreter imports in
#: :func:`import_sample`, and its seconds on the nominal machine.
IMPORTS = ("json, decimal, sqlite3, ctypes, asyncio, email.parser, "
           "http.client, xml.etree.ElementTree, unittest, logging.handlers, "
           "concurrent.futures, multiprocessing, argparse, dataclasses, "
           "statistics, fractions, csv, zipfile, tarfile")
IMPORT_REFERENCE_S = 0.08

_GROUPS = 1024
_GROUP_SIZE = 256


class _Node:
    __slots__ = ("key", "group", "value")

    def __init__(self, key: int, group: int) -> None:
        self.key = key
        self.group = group
        self.value = 0


def build_graph(groups: int = _GROUPS) -> List[Dict[int, _Node]]:
    """About a quarter million small objects in ``groups`` dicts."""
    return [{key: _Node(key, group) for key in range(_GROUP_SIZE)}
            for group in range(groups)]


def sample(graph: List[Dict[int, _Node]], steps: int = 5000) -> float:
    """Seconds a fixed walk over ``graph`` takes here and now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        state = 12345
        heap: List[tuple] = []
        for step in range(steps):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            node = graph[state % len(graph)][(state >> 10) % _GROUP_SIZE]
            node.value = step + node.key
            heapq.heappush(heap, (state & 4095, step, node))
            if len(heap) > 64:
                heapq.heappop(heap)
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


def import_sample() -> float:
    """Seconds a fresh interpreter takes to import :data:`IMPORTS`.

    Set-up is imports, page faults and process starts, whose speed on
    the machine drifts apart from the speed :func:`sample` measures;
    this measures theirs.  The child times itself, as set-up does: the
    parent's wait for a child with a timeout polls, and rounds the
    child's end to the poll interval.
    """
    done = subprocess.run(
        [sys.executable, "-c",
         "import time; began = time.perf_counter(); "
         f"import {IMPORTS}; print(time.perf_counter() - began)"],
        capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def speed_scale(samples: Sequence[float],
                nominal: float = REFERENCE_MS / 1000) -> float:
    """Factor taking host times measured beside ``samples`` (seconds of
    a reference whose nominal time is ``nominal``) to the nominal
    speed; 1 without samples."""
    samples = sorted(samples)
    if not samples:
        return 1.0
    middle = len(samples) // 2
    median = (samples[middle] if len(samples) % 2
              else (samples[middle - 1] + samples[middle]) / 2)
    return nominal / median


class ReferenceProcess:
    """The helper process; ``sample()`` returns one sample's seconds.

    Use as a context manager: leaving it ends the helper and waits for
    it.
    """

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("the speed reference process ended")
        return float(line)

    def close(self) -> None:
        try:
            self._process.stdin.close()
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        finally:
            self._process.stdout.close()

    def __enter__(self) -> "ReferenceProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def main() -> None:
    graph = build_graph()
    for _ in sys.stdin:
        sys.stdout.write(f"{sample(graph)!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
