"""Dispatch-surface pairs for the ``flow-parity`` signature fixtures.

* ``plan_fix`` / ``plan_fix_batch`` — **true positive**: the batch
  variant drops the ``sites`` kwarg (``tsp_mode`` is dispatch-only and
  legitimately absent; ``energy`` -> ``energies`` is the sanctioned
  structural rename);
* ``plan_quiet`` / ``plan_quiet_batch`` — **suppressed**: same gap,
  sanctioned by an inline ``allow`` directive;
* ``plan_ok`` / ``plan_ok_batch`` — **negative**: surfaces agree.
"""

from __future__ import annotations

__all__ = ["plan_fix", "plan_fix_batch", "plan_ok", "plan_ok_batch",
           "plan_quiet", "plan_quiet_batch"]


def plan_fix(network, energy, *, polish: bool = True, sites: int = 0,
             tsp_mode: str = "insertion") -> list:
    """Base surface of the drifting pair."""
    return [network, energy, polish, sites, tsp_mode]


def plan_fix_batch(network, energies, *, polish: bool = True) -> list:
    """Batch surface missing ``sites`` (true positive)."""
    return [network, energies, polish]


def plan_quiet(network, energy, *, sites: int = 0) -> list:
    """Base surface of the sanctioned pair."""
    return [network, energy, sites]


# repro: allow[flow-parity] -- fixture: suppressed on purpose
def plan_quiet_batch(network, energies) -> list:
    """Batch surface missing ``sites``, allowed inline (suppressed)."""
    return [network, energies]


def plan_ok(network, energy, *, scoring: str = "greedy",
            tsp_mode: str = "insertion") -> list:
    """Base surface of the clean pair (negative)."""
    return [network, energy, scoring, tsp_mode]


def plan_ok_batch(network, energies, *, scoring: str = "greedy") -> list:
    """Batch surface agreeing with the base (negative)."""
    return [network, energies, scoring]
