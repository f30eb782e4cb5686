"""Minimum-weight perfect matching on a dense cost matrix.

Christofides' step 2 pairs up the odd-degree vertices of the spanning
tree at minimum total cost.  :func:`min_weight_perfect_matching` solves
that problem on the complete graph given by a dense ``(k, k)`` cost
matrix with Edmonds' primal–dual blossom method in the O(k³) form of
Galil (1986), following Van Rantwijk's formulation of it — the same
algorithm, arithmetic and tie-breaking as ``networkx.min_weight_matching``
(the test oracle in ``tests/oracles.py``), so both return the same
matching on every input, ties included:

* the minimisation runs as a maximum-weight maximum-cardinality matching
  over the weights ``(1 + max(w)) - w`` of the upper triangle, mirrored;
* vertex duals start at the largest such weight, and the doubled slack of
  an edge is ``dual[v] + dual[w] - 2·weight``;
* neighbours are scanned in ascending order, every "least slack" choice
  keeps the first minimum, and blossoms take increasing integer ids
  ``k, k + 1, …`` so ascending-id order is creation order.

What differs is the data layout: duals, labels, label edges, least-slack
edges and blossom parents live in flat arrays indexed by vertex or
blossom id, and the allowed-edge set in a ``(k, k)`` boolean matrix.  A
vertex scan finds its tight edges with one vectorised slack evaluation
and handles the least-slack bookkeeping of every non-tight edge between
two tight ones in one masked update; the δ2/δ3/δ4 searches and the dual
update are vectorised too.  The blossom structure operations (trace,
add, expand, augment) are sequential and mirror the reference step for
step.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.errors import InvalidParameterError

#: "No vertex / no edge" in the index arrays.
_NONE = -1
#: Blossom-parent value of an expanded (deleted) blossom id.
_DEAD = -2

Edge = Tuple[int, int]


class _Blossoms:
    """State of one primal–dual run over ``k`` vertices.

    Ids ``0..k-1`` are vertices (trivial blossoms); ids ``>= k`` are
    non-trivial blossoms in creation order.  Per-id arrays grow on
    demand, because expanded blossom ids are never reused.
    """

    def __init__(self, weight2: np.ndarray, top: float) -> None:
        k = weight2.shape[0]
        self.k = k
        self.w2 = weight2                       # 2 * weight, symmetric
        self.dual = np.full(k, top)
        self.mate = np.full(k, _NONE, dtype=np.intp)
        self.inblossom = np.arange(k, dtype=np.intp)
        self.allow = np.zeros((k, k), dtype=bool)
        self.n_ids = k
        cap = 2 * k
        self.parent = np.full(cap, _NONE, dtype=np.intp)
        self.base = np.full(cap, _NONE, dtype=np.intp)
        self.base[:k] = np.arange(k)
        self.label = np.zeros(cap, dtype=np.int8)
        self.le_v = np.full(cap, _NONE, dtype=np.intp)
        self.le_w = np.full(cap, _NONE, dtype=np.intp)
        self.be_v = np.full(cap, _NONE, dtype=np.intp)
        self.be_w = np.full(cap, _NONE, dtype=np.intp)
        self.bdual = np.zeros(cap)
        self.alive = np.zeros(cap, dtype=bool)  # live non-trivial blossoms
        self.childs: Dict[int, List[int]] = {}
        self.edges: Dict[int, List[Edge]] = {}
        self.mybest: Dict[int, Optional[Tuple[np.ndarray, np.ndarray]]] = {}
        self.queue: List[int] = []

    # -- helpers ---------------------------------------------------------

    def _grow(self) -> None:
        cap = self.parent.shape[0]

        def widen(arr: np.ndarray, fill: object) -> np.ndarray:
            out = np.empty(2 * cap, dtype=arr.dtype)
            out[:cap] = arr
            out[cap:] = fill
            return out

        self.parent = widen(self.parent, _NONE)
        self.base = widen(self.base, _NONE)
        self.label = widen(self.label, 0)
        self.le_v = widen(self.le_v, _NONE)
        self.le_w = widen(self.le_w, _NONE)
        self.be_v = widen(self.be_v, _NONE)
        self.be_w = widen(self.be_w, _NONE)
        self.bdual = widen(self.bdual, 0.0)
        self.alive = widen(self.alive, False)

    def slack(self, v: int, w: int) -> float:
        """Doubled slack of edge ``(v, w)`` (not valid inside blossoms)."""
        return self.dual[v] + self.dual[w] - self.w2[v, w]

    def leaves(self, b: int) -> List[int]:
        """The vertices of blossom *b*, in the reference's stack order."""
        k = self.k
        if b < k:
            return [b]
        out = []
        stack = list(self.childs[b])
        while stack:
            t = stack.pop()
            if t >= k:
                stack.extend(self.childs[t])
            else:
                out.append(t)
        return out

    # -- labelling -------------------------------------------------------

    def assign_label(self, w: int, t: int, v: int) -> None:
        """Label the top-level blossom of *w* with *t*, reached from *v*."""
        while True:
            b = int(self.inblossom[w])
            self.label[w] = self.label[b] = t
            self.le_v[w] = self.le_v[b] = v
            self.le_w[w] = self.le_w[b] = w if v != _NONE else _NONE
            self.be_v[w] = self.be_v[b] = _NONE
            self.be_w[w] = self.be_w[b] = _NONE
            if t == 1:
                self.queue.extend(self.leaves(b))
                return
            # A T-blossom's base is its only vertex with an external mate.
            base = int(self.base[b])
            w, t, v = int(self.mate[base]), 1, base

    def scan_blossom(self, v: int, w: int) -> int:
        """Trace back from *v* and *w*: the new blossom's base vertex, or
        ``_NONE`` when the paths end at two single vertices (augment)."""
        label, inblossom, le_v = self.label, self.inblossom, self.le_v
        path = []
        base = _NONE
        while v != _NONE:
            b = int(inblossom[v])
            if label[b] & 4:
                base = int(self.base[b])
                break
            path.append(b)
            label[b] = 5
            if le_v[b] == _NONE:
                v = _NONE               # the base of b is single
            else:
                b = int(inblossom[le_v[b]])
                v = int(le_v[b])        # one more step back, through T
            if w != _NONE:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    # -- blossom structure ----------------------------------------------

    def add_blossom(self, base: int, v: int, w: int) -> None:
        """New S-blossom with *base*, closed by the edge ``(v, w)``."""
        k, inblossom = self.k, self.inblossom
        bb, bv, bw = (int(inblossom[base]), int(inblossom[v]),
                      int(inblossom[w]))
        if self.n_ids == self.parent.shape[0]:
            self._grow()
        b = self.n_ids
        self.n_ids += 1
        self.base[b] = base
        self.parent[b] = _NONE
        self.parent[bb] = b
        path: List[int] = []
        edgs: List[Edge] = [(v, w)]
        while bv != bb:
            self.parent[bv] = b
            path.append(bv)
            edgs.append((int(self.le_v[bv]), int(self.le_w[bv])))
            bv = int(inblossom[self.le_v[bv]])
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            self.parent[bw] = b
            path.append(bw)
            edgs.append((int(self.le_w[bw]), int(self.le_v[bw])))
            bw = int(inblossom[self.le_v[bw]])
        self.childs[b] = path
        self.edges[b] = edgs
        self.label[b] = 1
        self.le_v[b] = self.le_v[bb]
        self.le_w[b] = self.le_w[bb]
        self.bdual[b] = 0.0
        self.alive[b] = True
        # Former T-vertices become S-vertices: queue them.
        leaves = np.asarray(self.leaves(b), dtype=np.intp)
        was_t = self.label[inblossom[leaves]] == 2
        self.queue.extend(leaves[was_t].tolist())
        inblossom[leaves] = b
        # Least-slack edge from b to every neighbouring S-blossom: the
        # sub-blossoms' lists where kept, else every edge of their leaves.
        src: List[np.ndarray] = []
        dst: List[np.ndarray] = []
        for sub in path:
            kept = self.mybest.get(sub) if sub >= k else None
            if kept is not None:
                self.mybest[sub] = None
                src.append(kept[0])
                dst.append(kept[1])
            else:
                lv = np.asarray(self.leaves(sub), dtype=np.intp)
                ii = np.repeat(lv, k)
                jj = np.tile(np.arange(k, dtype=np.intp), lv.size)
                keep = ii != jj
                src.append(ii[keep])
                dst.append(jj[keep])
            self.be_v[sub] = self.be_w[sub] = _NONE
        ei = np.concatenate(src)
        ej = np.concatenate(dst)
        # The endpoint outside b names the neighbouring blossom.
        bj = inblossom[np.where(inblossom[ej] == b, ei, ej)]
        pos = ((bj != b) & (self.label[bj] == 1)).nonzero()[0]
        best = (ei[:0], ej[:0])
        self.be_v[b] = self.be_w[b] = _NONE
        if pos.size:
            keys = bj[pos]
            a, c = ei[pos], ej[pos]
            sl = self.dual[a] + self.dual[c] - self.w2[a, c]
            # Per neighbouring blossom: the first edge of least slack;
            # blossoms in order of their first candidate edge.
            order = np.lexsort((pos, sl, keys))
            head = np.ones(order.size, dtype=bool)
            head[1:] = keys[order[1:]] != keys[order[:-1]]
            _, first = np.unique(keys, return_index=True)
            winners = order[head][np.argsort(first)]
            best = (a[winners], c[winners])
            j = int(sl[winners].argmin())
            self.be_v[b], self.be_w[b] = best[0][j], best[1][j]
        self.mybest[b] = best

    def expand_blossom(self, b: int, endstage: bool) -> None:
        """Dissolve top-level blossom *b* (recursively at stage end)."""
        stack = [self._expand(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(self._expand(s, endstage))
                break
            else:
                stack.pop()

    def _expand(self, b: int, endstage: bool):
        k, label, inblossom = self.k, self.label, self.inblossom
        childs = self.childs[b]
        for s in childs:
            self.parent[s] = _NONE
            if s >= k:
                if endstage and self.bdual[s] == 0:
                    yield s
                else:
                    inblossom[self.leaves(s)] = s
            else:
                inblossom[s] = s
        if not endstage and label[b] == 2:
            # Relabel the sub-blossoms of an expanding T-blossom, from the
            # one it was entered through round to the base.
            edges = self.edges[b]
            entrychild = int(inblossom[self.le_w[b]])
            j = childs.index(entrychild)
            if j & 1:
                j -= len(childs)
                jstep = 1
            else:
                jstep = -1
            v, w = int(self.le_v[b]), int(self.le_w[b])
            while j != 0:
                if jstep == 1:
                    p, q = edges[j]
                else:
                    q, p = edges[j - 1]
                label[w] = 0
                label[q] = 0
                self.assign_label(w, 2, v)
                self.allow[p, q] = self.allow[q, p] = True
                j += jstep
                if jstep == 1:
                    v, w = edges[j]
                else:
                    w, v = edges[j - 1]
                self.allow[v, w] = self.allow[w, v] = True
                j += jstep
            bw = childs[j]
            label[w] = label[bw] = 2
            self.le_v[w] = self.le_v[bw] = v
            self.le_w[w] = self.le_w[bw] = w
            self.be_v[bw] = self.be_w[bw] = _NONE
            j += jstep
            while childs[j] != entrychild:
                bv = childs[j]
                if label[bv] == 1:
                    j += jstep
                    continue
                reached = _NONE
                for x in self.leaves(bv):
                    if label[x]:
                        reached = x
                        break
                if reached != _NONE:
                    label[reached] = 0
                    label[self.mate[self.base[bv]]] = 0
                    self.assign_label(reached, 2, int(self.le_v[reached]))
                j += jstep
        label[b] = 0
        self.le_v[b] = self.le_w[b] = _NONE
        self.be_v[b] = self.be_w[b] = _NONE
        self.parent[b] = _DEAD
        self.base[b] = _NONE
        self.alive[b] = False
        del self.childs[b], self.edges[b]
        self.mybest.pop(b, None)

    def augment_blossom(self, b: int, v: int) -> None:
        """Swap matched/unmatched edges inside *b* between *v* and its base."""
        stack = [self._augment(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(self._augment(*args))
                break
            else:
                stack.pop()

    def _augment(self, b: int, v: int):
        t = v
        while self.parent[t] != b:
            t = int(self.parent[t])
        if t >= self.k:
            yield (t, v)
        childs, edges = self.childs[b], self.edges[b]
        i = j = childs.index(t)
        if i & 1:
            j -= len(childs)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = childs[j]
            if jstep == 1:
                w, x = edges[j]
            else:
                x, w = edges[j - 1]
            if t >= self.k:
                yield (t, w)
            j += jstep
            t = childs[j]
            if t >= self.k:
                yield (t, x)
            self.mate[w] = x
            self.mate[x] = w
        self.childs[b] = childs = childs[i:] + childs[:i]
        self.edges[b] = edges[i:] + edges[:i]
        self.base[b] = self.base[childs[0]]

    def augment_matching(self, v: int, w: int) -> None:
        """Augment along the path through S-vertices *v* and *w*."""
        k, inblossom = self.k, self.inblossom
        for s, j in ((v, w), (w, v)):
            while True:
                bs = int(inblossom[s])
                if bs >= k:
                    self.augment_blossom(bs, s)
                self.mate[s] = j
                if self.le_v[bs] == _NONE:
                    break               # reached a single vertex
                t = int(self.le_v[bs])
                bt = int(inblossom[t])
                s, j = int(self.le_v[bt]), int(self.le_w[bt])
                if bt >= k:
                    self.augment_blossom(bt, j)
                self.mate[j] = s

    # -- the search ------------------------------------------------------

    def scan(self, v: int) -> bool:
        """Scan the edges of S-vertex *v*; True once the matching grew."""
        k, inblossom, label = self.k, self.inblossom, self.label
        be_v, be_w = self.be_v, self.be_w
        slk = self.dual[v] + self.dual - self.w2[v]
        tight = self.allow[v] | (slk <= 0)
        bv = int(inblossom[v])
        external = inblossom != bv
        stops = (external & tight).nonzero()[0]
        t = pos = 0
        while True:
            end = int(stops[t]) if t < stops.size else k
            if end > pos:
                # Non-tight edges up to the next tight one: least-slack
                # bookkeeping under the current labels.
                ext = external[pos:end]
                top = label[inblossom[pos:end]]
                to_s = ext & (top == 1)
                cand = to_s.nonzero()[0]
                if cand.size:
                    cand += pos
                    i = int(slk[cand].argmin())
                    if (be_v[bv] == _NONE
                            or slk[cand[i]] < self.slack(be_v[bv], be_w[bv])):
                        be_v[bv], be_w[bv] = v, cand[i]
                free = (ext & (top != 1) & (label[pos:end] == 0)).nonzero()[0]
                if free.size:
                    free += pos
                    a, c = be_v[free], be_w[free]
                    # Where no edge is kept yet, a = c = -1 reads a junk
                    # slack that the ``a == _NONE`` test overrides.
                    cur = self.dual[a] + self.dual[c] - self.w2[a, c]
                    hit = free[(a == _NONE) | (slk[free] < cur)]
                    be_v[hit] = v
                    be_w[hit] = hit
            if end == k:
                return False
            w = end
            pos = end + 1
            t += 1
            self.allow[v, w] = self.allow[w, v] = True
            bw = int(inblossom[w])
            if label[bw] == 0:
                self.assign_label(w, 2, v)
            elif label[bw] == 1:
                base = self.scan_blossom(v, w)
                if base == _NONE:
                    self.augment_matching(v, w)
                    return True
                self.add_blossom(base, v, w)
                # add_blossom may have grown the per-id arrays.
                label, be_v, be_w = self.label, self.be_v, self.be_w
                bv = int(inblossom[v])
                external = inblossom != bv
                stops = (external[pos:] & tight[pos:]).nonzero()[0] + pos
                t = 0
            elif label[w] == 0:
                label[w] = 2
                self.le_v[w], self.le_w[w] = v, w

    def run(self) -> np.ndarray:
        """The maximum-weight maximum-cardinality matching, as ``mate``."""
        k = self.k
        while True:
            # One stage: grow alternating trees until an augmentation.
            self.label[:] = 0
            self.le_v[:] = self.le_w[:] = _NONE
            self.be_v[:] = self.be_w[:] = _NONE
            for b in self.mybest:
                self.mybest[b] = None
            self.allow[:] = False
            self.queue = []
            for v in range(k):
                if self.mate[v] == _NONE and \
                        self.label[self.inblossom[v]] == 0:
                    self.assign_label(v, 1, _NONE)
            augmented = False
            while True:
                while self.queue and not augmented:
                    augmented = self.scan(self.queue.pop())
                if augmented:
                    break
                if not self._dual_step():
                    break
            if not augmented:
                return self.mate
            # Stage end: dissolve S-blossoms whose dual reached zero.
            for b in self.alive[:self.n_ids].nonzero()[0].tolist():
                if (self.alive[b] and self.parent[b] == _NONE
                        and self.label[b] == 1 and self.bdual[b] == 0):
                    self.expand_blossom(b, True)

    def _dual_step(self) -> bool:
        """Pick δ, update the duals and act; False at the optimum."""
        n = self.n_ids
        dual, w2 = self.dual, self.w2
        label, parent = self.label[:n], self.parent[:n]
        be_v, be_w = self.be_v[:n], self.be_w[:n]
        top = label[self.inblossom]
        deltatype = -1
        delta = 0.0
        edge: Edge = (_NONE, _NONE)
        blossom = _NONE
        # δ2: least slack from an S-vertex to a free vertex.
        cand = ((top == 0) & (be_v[:self.k] != _NONE)).nonzero()[0]
        if cand.size:
            a, c = be_v[cand], be_w[cand]
            d = dual[a] + dual[c] - w2[a, c]
            i = int(d.argmin())
            deltatype, delta, edge = 2, d[i], (int(a[i]), int(c[i]))
        # δ3: half the least slack between two top-level S-blossoms.
        cand = ((parent == _NONE) & (label == 1)
                & (be_v != _NONE)).nonzero()[0]
        if cand.size:
            a, c = be_v[cand], be_w[cand]
            d = (dual[a] + dual[c] - w2[a, c]) / 2.0
            i = int(d.argmin())
            if deltatype == -1 or d[i] < delta:
                deltatype, delta, edge = 3, d[i], (int(a[i]), int(c[i]))
        # δ4: least dual of a top-level T-blossom.
        cand = (self.alive[:n] & (parent == _NONE)
                & (label == 2)).nonzero()[0]
        if cand.size:
            d = self.bdual[cand]
            i = int(d.argmin())
            if deltatype == -1 or d[i] < delta:
                deltatype, delta, blossom = 4, d[i], int(cand[i])
        if deltatype == -1:
            return False    # maximum cardinality reached: optimum
        dual[top == 1] -= delta
        dual[top == 2] += delta
        tops = self.alive[:n] & (parent == _NONE)
        self.bdual[:n][tops & (label == 1)] += delta
        self.bdual[:n][tops & (label == 2)] -= delta
        if deltatype == 4:
            self.expand_blossom(blossom, False)
        else:
            v, w = edge
            self.allow[v, w] = self.allow[w, v] = True
            self.queue.append(v)
        return True


def min_weight_perfect_matching(cost: np.ndarray) -> np.ndarray:
    """Minimum-weight perfect matching of the complete graph on *cost*.

    Parameters
    ----------
    cost:
        Square ``(k, k)`` matrix of finite edge costs with ``k`` even.
        Only the strict upper triangle is read (it is mirrored), so the
        diagonal and lower triangle are free.

    Returns
    -------
    numpy.ndarray
        ``mate`` with ``mate[v]`` the vertex matched to ``v``; the
        matching equals ``networkx.min_weight_matching``'s on the same
        complete graph (module docstring).
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InvalidParameterError(
            f"cost must be a square matrix, got shape {c.shape}")
    k = c.shape[0]
    if k % 2:
        raise InvalidParameterError(
            f"a perfect matching needs an even vertex count, got {k}")
    if k == 0:
        return np.empty(0, dtype=np.intp)
    iu, ju = np.triu_indices(k, 1)
    upper = c[iu, ju]
    if not np.isfinite(upper).all():
        raise InvalidParameterError("cost contains non-finite entries")
    weight = (1 + upper.max()) - upper
    weight2 = np.zeros((k, k))
    weight2[iu, ju] = weight2[ju, iu] = 2 * weight
    return _Blossoms(weight2, float(weight.max())).run()


__all__ = ["min_weight_perfect_matching"]
