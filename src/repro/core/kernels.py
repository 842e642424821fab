"""Vectorized quality kernels: the NumPy backend of the evaluator.

The scalar :class:`~repro.core.evaluator.TemporalQualityEvaluator`
spends the solver hot path in two per-slot loops — recomputing
finishing probabilities over an affected window, and accumulating
``phi(p) = -p log2 p`` terms slot by slot.  This module packages both
as array operations so a whole window is evaluated in one vectorized
pass:

* :func:`phi_array` — the entropy term over an array of probabilities;
* :class:`QualityKernel` — per-``(m, k)`` batch primitives:

  - ``batch_knn``: temporal k-NN state (weighted totals, and the
    k-th neighbour's merge key and eviction term needed by the Eq.-6
    merge rule) for many query slots at once, via
    ``searchsorted`` over the sorted executed-slot array plus a
    ``2k``-wide sort of candidate keys ``distance * (m + 2) + slot``;
  - ``cand_key`` / ``reach``: per-``(m, k)`` merge tables indexed by
    the offset ``m + (u - s)`` between a window slot ``u`` and a
    candidate ``s`` — the candidate's merge key relative to ``u`` and
    its interpolation weight ``m - |u - s|``.  The evaluator keeps each
    slot's k-th-neighbour key relative to the slot too, so a gain
    compares one contiguous slice against another;
  - ``phi_of_totals``: entropy terms from raw weighted totals, served
    from a precomputed *phi table* whenever every reliability is 1.0
    — in that case a slot's total is an integer in ``[0, k*m]``
    (exactly representable in float64), so only ``O(m*k)`` distinct
    probability values ever occur and the whole entropy computation
    collapses to an integer table lookup (``np.take``).

Bitwise-consistency contract: in the unit-reliability regime the
NumPy path is *bitwise identical* to the scalar oracle, not merely
close.  The phi table is built with the scalar
:func:`~repro.core.quality.entropy_term`, totals are exact integers,
and the evaluator accumulates gain terms in the scalar path's exact
sequential order — so a probability that did not change contributes
an exact ``0.0`` delta, and mathematically tied candidates (symmetric
geometry, equal costs) stay *exactly* tied on both backends, which is
what makes the deterministic smallest-index tie-break — and therefore
the produced plan — backend-invariant.  With heterogeneous
reliabilities the vectorized phi (``np.log2``) may differ from the
scalar one in the last ulp; exact cross-candidate ties require the
symmetry that heterogeneous reliabilities break, so plans remain
identical there too (property-tested).

Kernels are cached per ``(m, k)`` via :func:`get_kernel`, so every
evaluator of the same shape — across tasks, batches, and streaming
epochs — shares one phi table and one set of scratch constants.
"""

from __future__ import annotations

import numpy as np

from repro.core.quality import entropy_term
from repro.errors import ConfigurationError

__all__ = ["phi_array", "QualityKernel", "get_kernel"]


def phi_array(p: np.ndarray) -> np.ndarray:
    """Vectorized entropy term ``phi(p) = -p log2 p`` (phi(0) = 0).

    Values are clamped into ``[0, 1]`` with the same ``1e-15``
    tolerance as the scalar :func:`~repro.core.quality.entropy_term`;
    anything further out of range raises.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size and (float(p.min()) < -1e-15 or float(p.max()) > 1.0 + 1e-15):
        bad = p[(p < -1e-15) | (p > 1.0 + 1e-15)]
        raise ConfigurationError(f"probability out of range: {float(bad[0])}")
    clamped = np.clip(p, 0.0, 1.0)
    out = np.zeros_like(clamped)
    positive = clamped > 0.0
    # -p * log2(p), evaluated only where p > 0.
    np.log2(clamped, out=out, where=positive)
    out *= clamped
    np.negative(out, out=out)
    return out


class QualityKernel:
    """Batch quality primitives for one task shape ``(m, k)``.

    Stateless apart from precomputed constants, so a single instance
    is safely shared by every evaluator with the same shape (see
    :func:`get_kernel`).
    """

    #: Sentinel k-th-neighbour merge key meaning "fewer than k
    #: neighbours exist": the key of distance ``m + 2`` at slot 0,
    #: larger than any real key, so a merge candidate always enters
    #: and nothing is evicted.
    NO_KEY = None  # set per instance ((m + 2) ** 2)

    def __init__(self, m: int, k: int):
        if m < 3:
            raise ConfigurationError(f"m must be >= 3, got {m}")
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.m = m
        self.k = k
        self.denom = float(k * m * m)
        # Integer-total phi table: phi(t / (k m^2)) for t in 0..k*m.
        # Built with the *scalar* entropy_term so unit-reliability
        # lookups are bitwise identical to the python backend (the
        # plan-identity contract hinges on exact ties staying exact).
        denom = self.denom
        self.phi_table = np.array(
            [entropy_term(t / denom) for t in range(k * m + 1)], dtype=np.float64
        )
        # Tie-break key stride: key = distance * stride + slot orders
        # candidates by (distance, slot index), both <= m + 1.
        self._stride = m + 2
        self.NO_KEY = (m + 2) * self._stride
        self._offsets = np.arange(0, 2 * k, dtype=np.intp)
        self._pad_lo = np.full(k, -3 * m, dtype=np.int64)
        self._pad_hi = np.full(k, 3 * m, dtype=np.int64)
        # Merge tables indexed by ``m + d`` for a window slot ``u`` and
        # a candidate ``s = u - d``, so a window is a contiguous slice:
        # the candidate's merge key relative to ``u``,
        # ``|d| * (m + 2) + s - u`` (never negative), and its
        # interpolation weight ``m - |d|``.
        d = np.arange(-m, m + 1, dtype=np.int64)
        self.cand_key = np.abs(d) * self._stride - d
        self.reach = (m - np.abs(d)).astype(np.float64)

    # ------------------------------------------------------------------
    # Entropy
    # ------------------------------------------------------------------
    def phi_of_totals(self, totals: np.ndarray, *, unit: bool) -> np.ndarray:
        """Entropy terms for raw weighted totals ``k m^2 p``.

        ``unit=True`` asserts every contributing reliability is 1.0,
        making the totals exact integers on the phi-table grid.
        """
        if unit:
            # Sums of integer terms are exact in float64: truncation
            # is the table index itself.
            return self.phi_table.take(totals.astype(np.intp))
        return phi_array(totals / self.denom)

    def phi_executed(self, reliability: float) -> float:
        """phi of an executed slot's probability ``lambda / m``.

        Computed with the scalar entropy term so the value is bitwise
        equal to what the python backend produces for the same slot.
        """
        if reliability == 1.0:
            # 1/m sits on the table grid at t = k*m (same rounded
            # quotient: (k m)/(k m^2) and 1.0/m round identically).
            return float(self.phi_table[self.k * self.m])
        return entropy_term(reliability / self.m)

    # ------------------------------------------------------------------
    # Batch temporal k-NN
    # ------------------------------------------------------------------
    def batch_knn(
        self,
        executed: np.ndarray,
        reliability_of: np.ndarray,
        queries: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """k-NN interpolation state for many unexecuted slots at once.

        ``executed`` is the sorted executed-slot array (int64);
        ``reliability_of`` is indexed by slot, holding each executed
        slot's reliability and 0.0 at index 0; ``queries`` are
        unexecuted slot indices.  Returns ``(totals, farkey, evict)``
        where

        * ``totals[i] = sum_{e in kNN(q_i)} lambda_e * (m - |e - q_i|)``
          (so ``p = totals / (k m^2)``),
        * ``farkey[i] = |e - q_i| * (m + 2) + e`` is the merge key of
          the k-th nearest neighbour ``e`` (the one a closer insertion
          would evict), :attr:`NO_KEY` when fewer than ``k`` exist,
        * ``evict[i] = lambda_e * (m - |e - q_i|)`` is that neighbour's
          term of the total (0.0 when fewer than ``k`` exist).

        Ties break toward the smaller slot index, exactly like
        :meth:`repro.util.sorted_slots.SortedSlots.k_nearest`: the
        ``2k`` candidates around each query are ranked by that merge
        key, which is unique per real candidate, so sorting the keys
        themselves (no argsort, no gathers) yields the neighbours in
        order, and distance and slot decode back out of each key.
        """
        m, k = self.m, self.k
        stride = self._stride
        # k sentinels on each side keep every candidate index in range;
        # they lie more than m + 2 slots from any query, so their keys
        # exceed NO_KEY and clamp to it: out-of-range candidates sort
        # last and decode to distance m + 2 at slot 0 (reliability 0).
        padded = np.concatenate((self._pad_lo, executed, self._pad_hi))
        cand = padded[np.searchsorted(executed, queries)[:, None] + self._offsets]
        key = np.abs(cand - queries[:, None]) * stride + cand
        np.minimum(key, self.NO_KEY, out=key)
        top = np.sort(key, axis=1)[:, :k]
        top_dist, top_cand = np.divmod(top, stride)
        top_lam = reliability_of[top_cand]
        contrib = np.where(top < self.NO_KEY, top_lam * (m - top_dist), 0.0)
        return contrib.sum(axis=1), top[:, -1], contrib[:, -1]


_KERNELS: dict[tuple[int, int], QualityKernel] = {}
#: Cache bound: matches the deliberate cap on greedy's quality-table
#: cache so a long-lived service seeing many task shapes cannot grow
#: memory without bound (each entry holds a k*m+1 float64 phi table).
_KERNEL_CACHE_LIMIT = 1024


def get_kernel(m: int, k: int) -> QualityKernel:
    """The shared :class:`QualityKernel` for ``(m, k)``.

    Caching (LRU, bounded) is what amortizes the phi table across
    every task, batch round, and streaming epoch with the same shape.
    """
    key = (m, k)
    kernel = _KERNELS.pop(key, None)
    if kernel is None:
        kernel = QualityKernel(m, k)
        while len(_KERNELS) >= _KERNEL_CACHE_LIMIT:
            _KERNELS.pop(next(iter(_KERNELS)))
    _KERNELS[key] = kernel  # (re)insert at the most-recent position
    return kernel
