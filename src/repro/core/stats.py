"""Distribution statistics computed from a profile's block walk.

The block set is a run-length encoding of the sorted frequency array, so
statistics that are O(m) on the raw array cost only O(#blocks) here.
All functions accept anything exposing the
:class:`~repro.core.queries.ProfileQueryMixin` surface (live profiles and
snapshots alike).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import EmptyProfileError

__all__ = [
    "ProfileSummary",
    "summarize",
    "entropy",
    "gini",
    "top_share",
]


@dataclass(frozen=True)
class ProfileSummary:
    """One-shot descriptive statistics of a frequency distribution."""

    capacity: int
    total: int
    active: int
    distinct_frequencies: int
    min_frequency: int
    max_frequency: int
    mean: float
    variance: float
    median: int
    entropy_bits: float
    gini: float

    def __str__(self) -> str:
        return (
            f"ProfileSummary(m={self.capacity}, total={self.total}, "
            f"active={self.active}, freq range "
            f"[{self.min_frequency}, {self.max_frequency}], "
            f"mean={self.mean:.3f}, median={self.median}, "
            f"H={self.entropy_bits:.3f} bits, gini={self.gini:.3f})"
        )


def summarize(profile) -> ProfileSummary:
    """Compute a :class:`ProfileSummary`.  O(#blocks)."""
    m = profile.capacity
    if m == 0:
        raise EmptyProfileError("cannot summarize a zero-capacity profile")
    total = 0
    sum_sq = 0
    active = 0
    n_blocks = 0
    for f, count in profile.histogram():
        total += f * count
        sum_sq += f * f * count
        if f != 0:
            active += count
        n_blocks += 1
    mean = total / m
    variance = max(sum_sq / m - mean * mean, 0.0)
    return ProfileSummary(
        capacity=m,
        total=total,
        active=active,
        distinct_frequencies=n_blocks,
        min_frequency=profile.least().frequency,
        max_frequency=profile.mode().frequency,
        mean=mean,
        variance=variance,
        median=profile.median_frequency(),
        entropy_bits=entropy(profile),
        gini=gini(profile),
    )


def entropy(profile, base: float = 2.0) -> float:
    """Shannon entropy of the positive-frequency mass.  O(#blocks).

    Each object with frequency ``f > 0`` contributes probability
    ``f / total_positive``.  Objects at zero or negative frequency carry
    no mass and are excluded (a profile with allowed negative frequencies
    has no meaningful probability interpretation for those entries).
    Returns 0.0 when no positive mass exists.
    """
    if base <= 1.0:
        raise ValueError(f"entropy base must exceed 1, got {base}")
    positive = [
        (f, count) for f, count in profile.histogram() if f > 0
    ]
    mass = sum(f * count for f, count in positive)
    if mass == 0:
        return 0.0
    log_base = math.log(base)
    acc = 0.0
    for f, count in positive:
        p = f / mass
        acc -= count * p * math.log(p)
    return acc / log_base


def gini(profile) -> float:
    """Gini coefficient of the non-negative frequency mass.  O(#blocks).

    Uses the sorted-array identity
    ``G = (2 * sum_i i*x_i) / (m * sum_i x_i) - (m + 1) / m`` with
    1-based ``i`` over ascending ``x``; each block contributes its
    arithmetic-series rank sum in closed form.  Negative frequencies are
    clamped to zero (inequality of holdings cannot be negative).
    Returns 0.0 when the total mass is zero.
    """
    m = profile.capacity
    if m == 0:
        return 0.0
    weighted = 0  # sum of i * x_i with 1-based i over ascending order
    mass = 0
    cum = 0
    # The ascending histogram *is* the run-length encoding of the sorted
    # frequency array, so ranks are recovered from cumulative counts;
    # this keeps the function working for any backend that can produce a
    # histogram (flat, cluster merge, facade), not just ones exposing a
    # block set.
    for f, count in profile.histogram():
        lo = cum + 1  # 1-based rank of the run's first element
        hi = cum + count
        cum = hi
        if f <= 0:
            continue
        rank_sum = (lo + hi) * count // 2
        weighted += rank_sum * f
        mass += f * count
    if mass == 0:
        return 0.0
    return (2.0 * weighted) / (m * mass) - (m + 1.0) / m


def top_share(profile, k: int) -> float:
    """Fraction of positive mass held by the ``k`` most frequent objects.

    O(#blocks).  Returns 0.0 when there is no positive mass.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    runs = profile.histogram()
    mass = sum(f * count for f, count in runs if f > 0)
    if mass == 0 or k == 0:
        return 0.0
    taken = 0
    remaining = k
    for f, count in reversed(runs):
        if f <= 0 or remaining == 0:
            break
        take = min(count, remaining)
        taken += take * f
        remaining -= take
    return taken / mass
