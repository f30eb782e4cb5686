"""Statistical treatment of sweep measurements.

The paper reports bare means over 15 instances; this module adds the
machinery a careful reproduction wants on top:

* :func:`mean_confidence_interval` — t-based CI for a sample mean,
* :func:`row_confidence_interval` — the same for a
  :class:`~repro.experiments.runner.SweepRow` (reconstructing the standard
  error from the stored std and instance count),
* :func:`paired_comparison` — per-instance paired test between two
  algorithms (the runner evaluates all algorithms on the *same* instance
  set precisely to enable this): mean difference, its CI, a sign-test
  p-value, and a verdict string.

Only scipy.stats is used (already a dependency).  It is imported inside
the functions that call it: importing it costs more than the rest of the
package together, and the figure runners never need it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.experiments.runner import SweepRow
from repro.utils.errors import InvalidParameterError


def mean_confidence_interval(samples: Sequence[float],
                             confidence: float = 0.95
                             ) -> Tuple[float, float, float]:
    """``(mean, lo, hi)`` t-interval for the mean of *samples*.

    A single sample yields a degenerate interval at its value.
    """
    x = np.asarray(list(samples), dtype=float)
    if x.size == 0:
        raise InvalidParameterError("samples must be non-empty")
    if not (0.0 < confidence < 1.0):
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence}")
    mean = float(x.mean())
    if x.size == 1:
        return mean, mean, mean
    from scipy import stats
    sem = float(x.std(ddof=1) / np.sqrt(x.size))
    half = float(stats.t.ppf(0.5 + confidence / 2.0, df=x.size - 1) * sem)
    return mean, mean - half, mean + half


def row_confidence_interval(row: SweepRow, *, metric: str = "volume",
                            confidence: float = 0.95
                            ) -> Tuple[float, float, float]:
    """t-interval reconstructed from a sweep row's (mean, std, n).

    The runner stores the *population* std (``np.std`` default); the
    ddof-1 correction is applied here.
    """
    if metric == "volume":
        mean, std = row.mean_volume_gb, row.std_volume_gb
    elif metric == "time":
        mean, std = row.mean_time_s, row.std_time_s
    else:
        raise InvalidParameterError(
            f"metric must be 'volume' or 'time', got {metric!r}")
    n = row.n_instances
    if n <= 1:
        return mean, mean, mean
    from scipy import stats
    sample_std = std * np.sqrt(n / (n - 1))
    sem = sample_std / np.sqrt(n)
    half = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1) * sem)
    return mean, mean - half, mean + half


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a per-instance paired comparison ``a`` vs ``b``.

    Attributes
    ----------
    mean_diff:
        Mean of ``a_i - b_i``.
    ci:
        ``(lo, hi)`` t-interval for the mean difference.
    wins, losses, ties:
        Per-instance tallies of ``a_i > b_i`` etc.
    p_sign:
        Two-sided sign-test p-value (ties dropped).
    """

    mean_diff: float
    ci: Tuple[float, float]
    wins: int
    losses: int
    ties: int
    p_sign: float

    @property
    def significant(self) -> bool:
        """Zero lies outside the CI (the usual 95 % reading)."""
        lo, hi = self.ci
        return lo > 0.0 or hi < 0.0

    def verdict(self, a: str = "A", b: str = "B") -> str:
        """Human-readable one-liner."""
        direction = a if self.mean_diff > 0 else b
        strength = "significantly" if self.significant else "not significantly"
        return (f"{direction} ahead by {abs(self.mean_diff):.3f} on average "
                f"({strength}; wins {self.wins}-{self.losses}-{self.ties}, "
                f"sign-test p={self.p_sign:.3f})")


def paired_comparison(a: Sequence[float], b: Sequence[float], *,
                      confidence: float = 0.95,
                      tie_tol: float = 1e-9) -> PairedComparison:
    """Paired comparison of two per-instance measurement vectors.

    Parameters
    ----------
    a, b:
        Same-length vectors, measured on the *same* instances in the same
        order (the sweep runner guarantees this).
    confidence:
        CI level for the mean difference.
    tie_tol:
        Absolute differences below this count as ties.
    """
    xa = np.asarray(list(a), dtype=float)
    xb = np.asarray(list(b), dtype=float)
    if xa.shape != xb.shape or xa.size == 0:
        raise InvalidParameterError(
            "a and b must be equal-length non-empty vectors")
    diff = xa - xb
    mean, lo, hi = mean_confidence_interval(diff, confidence)
    wins = int((diff > tie_tol).sum())
    losses = int((diff < -tie_tol).sum())
    ties = int(diff.size - wins - losses)
    n_eff = wins + losses
    if n_eff == 0:
        p = 1.0
    else:
        from scipy import stats
        p = float(stats.binomtest(min(wins, losses), n_eff, 0.5).pvalue)
    return PairedComparison(mean_diff=mean, ci=(lo, hi), wins=wins,
                            losses=losses, ties=ties, p_sign=p)


__all__ = [
    "mean_confidence_interval",
    "row_confidence_interval",
    "PairedComparison",
    "paired_comparison",
]
