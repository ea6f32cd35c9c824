"""Confidence intervals over repeated seeded runs.

The paper performs "multiple runs with small random perturbations and
different random seeds to plot 95% confidence intervals" (Section 8.1).
We reproduce that methodology with Student-t intervals over per-seed
results.  The t quantile is computed here from the standard library
alone: the regularized incomplete beta function by continued fraction,
inverted by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:
        return (f"{self.mean:.4g} ± {self.half_width:.2g} "
                f"({self.confidence:.0%}, n={self.n})")


def t_interval(samples: Sequence[float],
               confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval of the mean of ``samples``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(samples)
    if n == 0:
        raise ValueError("need at least one sample")
    mean = sum(samples) / n
    if n == 1:
        return ConfidenceInterval(mean, 0.0, confidence, 1)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    sem = math.sqrt(variance / n)
    critical = _t_critical(confidence, n - 1)
    return ConfidenceInterval(mean, critical * sem, confidence, n)


def ratio_interval(numerators: Sequence[float],
                   denominator_mean: float,
                   confidence: float = 0.95) -> ConfidenceInterval:
    """CI of per-run values normalized by a fixed baseline mean.

    Used for "normalized runtime" plots where each configuration's runs are
    divided by the baseline configuration's mean runtime.
    """
    if denominator_mean <= 0:
        raise ValueError("denominator_mean must be positive")
    return t_interval([x / denominator_mean for x in numerators], confidence)


def _t_critical(confidence: float, df: int) -> float:
    """Two-sided critical value: ``t`` with ``P(|T| > t) = 1 - confidence``
    for Student's t with ``df`` degrees of freedom.

    ``P(T > t) = I_x(df / 2, 1 / 2) / 2`` with ``x = df / (df + t**2)``;
    bisection runs until the bracket is one float wide.
    """
    tail = (1.0 - confidence) / 2.0

    def upper(t: float) -> float:
        return 0.5 * _incomplete_beta(df / 2.0, 0.5, df / (df + t * t))

    low, high = 0.0, 1.0
    while upper(high) > tail:
        low, high = high, 2.0 * high
    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            return high
        if upper(mid) > tail:
            low = mid
        else:
            high = mid


def _incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``, 0 < x < 1."""
    if x > (a + 1.0) / (a + b + 2.0):
        # The continued fraction converges fast only below this point.
        return 1.0 - _incomplete_beta(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    # The continued fraction, by the modified Lentz method; ``tiny``
    # keeps a vanishing denominator from dividing by zero.
    tiny = 1e-300
    c, d = 1.0, 1.0 / max(tiny, 1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    for m in range(1, 10_000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            fraction *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return front * fraction / a
    raise ArithmeticError(f"I_{x}({a}, {b}) did not converge")
