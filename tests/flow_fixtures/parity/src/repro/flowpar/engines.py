"""Kernel family for the ``flow-parity`` perf-contract fixtures.

Two kernels of one family (``repro.flowpar``): ``AKernel`` registers the
family's counters and publishes the full ``perf()`` contract, while
``BKernel.perf`` deliberately omits the ``flushes`` key — the drift the
rule must report against the family contract
``{engine, seconds, steps, flushes}``.
"""

from __future__ import annotations

__all__ = ["AKernel", "BKernel", "CKernel"]


class AKernel:
    """Reference kernel: registers counters, publishes the full contract."""

    def __init__(self, metrics):
        self.metrics = metrics
        for name in ("steps", "flushes"):
            self.metrics.counter(name)

    def perf(self) -> dict:
        """Full perf payload (negative: contract satisfied)."""
        return {"engine": "afix", "steps": 1, "flushes": 2, "seconds": {}}


class BKernel:
    """Drifting kernel: ``perf`` omits ``flushes`` (true positive)."""

    def perf(self) -> dict:
        """Partial perf payload missing a registered counter."""
        return {"engine": "bfix", "steps": 3, "seconds": {}}


class CKernel:
    """Drifting kernel whose gap is sanctioned inline (suppressed)."""

    def perf(self) -> dict:
        """Partial perf payload, allowed for this fixture."""
        # repro: allow[flow-parity] -- fixture: suppressed on purpose
        return {"engine": "cfix", "flushes": 0, "seconds": {}}
