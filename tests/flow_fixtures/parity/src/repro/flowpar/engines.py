"""Kernel family for the ``flow-parity`` perf-contract fixtures.

Two kernels of one family (``repro.flowpar``): ``AKernel`` publishes the
full ``perf()`` contract, while ``BKernel.perf`` deliberately omits the
``flushes`` key — the drift the rule must report against the family
contract ``{engine, steps, flushes}``.
"""

from __future__ import annotations

__all__ = ["AKernel", "BKernel", "CKernel"]


class AKernel:
    """Reference kernel: counts its work, publishes the full contract."""

    def __init__(self):
        self.counters = {"steps": 0, "flushes": 0}

    def perf(self) -> dict:
        """Full perf payload (negative: contract satisfied)."""
        return {"engine": "afix", "steps": 1, "flushes": 2}


class BKernel:
    """Drifting kernel: ``perf`` omits ``flushes`` (true positive)."""

    def perf(self) -> dict:
        """Partial perf payload missing a family counter."""
        return {"engine": "bfix", "steps": 3}


class CKernel:
    """Drifting kernel whose gap is sanctioned inline (suppressed)."""

    def perf(self) -> dict:
        """Partial perf payload, allowed for this fixture."""
        # repro: allow[flow-parity] -- fixture: suppressed on purpose
        return {"engine": "cfix", "flushes": 0}
