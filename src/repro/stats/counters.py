"""Generic statistics primitives: counters, running means, EWMA, histograms."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Optional


class Counter:
    """A named integer counter with convenient arithmetic."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class RunningStat:
    """Welford-style running mean/variance of a stream of samples."""

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        # Compared inline (once per miss); a tie keeps the old value,
        # as min() and max() do.
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStat") -> None:
        """Fold another RunningStat into this one (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min, self.max = other.min, other.max
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)  # type: ignore[arg-type]
        self.max = max(self.max, other.max)  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, Any]:
        """The JSON form of the Welford state.  ``json`` round-trips
        floats exactly, so :meth:`from_dict` restores it bit for bit."""
        return {"count": self.count, "mean": self._mean, "m2": self._m2,
                "min": self.min, "max": self.max}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunningStat":
        stat = cls()
        stat.count = int(data["count"])
        stat._mean = float(data["mean"])
        stat._m2 = float(data["m2"])
        stat.min = None if data["min"] is None else float(data["min"])
        stat.max = None if data["max"] is None else float(data["max"])
        return stat


class Ewma:
    """Exponentially weighted moving average.

    PATCH uses this to track the dynamic average round-trip latency that
    parameterizes the tenure timeout (paper Section 5.2).
    """

    __slots__ = ("alpha", "_value")

    def __init__(self, alpha: float = 0.125, initial: Optional[float] = None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._value = initial

    def add(self, sample: float) -> float:
        if self._value is None:
            self._value = float(sample)
        else:
            self._value += self.alpha * (sample - self._value)
        return self._value

    @property
    def value(self) -> Optional[float]:
        return self._value


class Histogram:
    """Fixed-bucket histogram for latency distributions."""

    def __init__(self, bucket_width: int = 10, max_buckets: int = 512) -> None:
        if bucket_width < 1:
            raise ValueError("bucket_width must be >= 1")
        self.bucket_width = bucket_width
        self.max_buckets = max_buckets
        self.buckets: Dict[int, int] = defaultdict(int)
        self.stat = RunningStat()

    def add(self, value: float) -> None:
        index = min(int(value) // self.bucket_width, self.max_buckets - 1)
        self.buckets[index] += 1
        self.stat.add(value)

    def percentile(self, p: float) -> float:
        """Approximate percentile from bucket midpoints (p in [0, 100]).

        Values beyond the histogram's range are clamped into the last
        (overflow) bucket; reporting that bucket's *midpoint* would
        silently bound any tail percentile by
        ``bucket_width * max_buckets``, so the overflow bucket reports
        the observed maximum instead (tracked exactly in ``self.stat``).
        """
        if not 0 <= p <= 100:
            raise ValueError("p must be in [0, 100]")
        total = self.stat.count
        if total == 0:
            return 0.0
        target = total * p / 100.0
        overflow = self.max_buckets - 1
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                if index == overflow:
                    return float(self.stat.max)
                return (index + 0.5) * self.bucket_width
        index = max(self.buckets)
        if index == overflow:  # pragma: no cover - loop covers totals
            return float(self.stat.max)
        return (index + 0.5) * self.bucket_width


class StatGroup:
    """A bag of named counters, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def add(self, name: str, amount: int = 1) -> None:
        # Inlined counter(): controllers bump counters on every message.
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        counter.value += amount

    def value(self, name: str) -> int:
        return self._counters[name].value if name in self._counters else 0

    def as_dict(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def names(self) -> List[str]:
        return sorted(self._counters)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; conventional for normalized-runtime summaries."""
    values = list(values)
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
