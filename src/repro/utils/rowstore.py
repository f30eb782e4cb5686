"""Rows of an implicit matrix, evaluated on first use and kept.

Both on-demand cost operators of the package keep the rows they have
served: Algorithm 1's auxiliary-graph weights
(:class:`repro.core.auxgraph.W2Costs`) and the greedy kernel's
tour-node-to-site distances (:class:`repro.core.kernel.PlannerKernel`).
:class:`RowStore` is their shared slot-and-grow store.
"""

from __future__ import annotations

# repro: hot-path
# (Every insertion of Algorithms 2/3 reads the store; its only 2-D
# allocations are the store itself.)

from typing import Callable

import numpy as np


class RowStore:
    """Rows of an ``(n_keys, width)`` matrix, each evaluated once per key.

    Rows live in consecutive slots of one contiguous store (:attr:`data`)
    that doubles when full, so a gather over any set of kept rows is one
    fancy index into :attr:`data`.
    """

    def __init__(self, n_keys: int, width: int) -> None:
        self._slot = np.full(n_keys, -1, dtype=np.intp)
        # repro: allow[hot-path-purity] -- the persistent (|tour|, m) row store
        self.data = np.empty((0, width))
        self._n_rows = 0

    @property
    def kept(self) -> np.ndarray:
        """The evaluated rows, in slot order (a view of :attr:`data`)."""
        return self.data[:self._n_rows]

    def slots(self, keys,
              evaluate: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Slots of rows *keys* in :attr:`data`, evaluating missing rows.

        *evaluate* maps an array of distinct keys to their rows as a
        ``(len(keys), width)`` array.  It is passed per call, not kept,
        so an owner passing its own method forms no reference cycle with
        its store (both are freed as soon as the owner is).  Growing the
        store replaces :attr:`data`: read it after this call.
        """
        keys = np.asarray(keys, dtype=np.intp)
        slots = self._slot[keys]
        missing = slots < 0
        if missing.any():
            new = np.unique(keys[missing])
            end = self._n_rows + len(new)
            if end > len(self.data):
                # repro: allow[hot-path-purity] -- the persistent (|tour|, m) row store
                grown = np.empty((max(end, 2 * len(self.data)),
                                  self.data.shape[1]))
                grown[:self._n_rows] = self.data[:self._n_rows]
                self.data = grown
            self.data[self._n_rows:end] = evaluate(new)
            self._slot[new] = np.arange(self._n_rows, end)
            self._n_rows = end
            slots = self._slot[keys]
        return slots


__all__ = ["RowStore"]
