"""Incremental single-task quality evaluation.

:class:`TemporalQualityEvaluator` maintains, for one task, the executed
slot set and the per-slot finishing probabilities, and answers the two
questions every solver asks in its inner loop:

* ``gain_if_executed(slot)`` — the quality increment of tentatively
  executing a slot (the numerator of Algorithm 1's heuristic value);
* ``execute(slot)`` — commit the execution and update state.

Two evaluation strategies are exposed, matching the paper's two
solvers:

* *Full rescan* (``gain_full_rescan``): recompute the probability of
  every slot — the naive Algorithm 1 behaviour, ``O(m (log m + k))``
  per candidate.
* *Local update* (``gain_if_executed``): only slots whose k-NN set can
  change are recomputed.  This is the "locality of k-NN searching" of
  Section III-C: executing slot ``s`` affects exactly the slots closer
  to ``s`` than to their current ``k``-th nearest executed neighbour,
  a contiguous window around ``s`` (:meth:`affected_window`).

The window derivation: for a slot ``u < s``, the executed slots
strictly closer to ``u`` than ``s`` are those in the open interval
``(2u - s, s)``.  With ``e_k`` the ``k``-th executed slot below ``s``
(scanning left), ``u`` keeps its k-NN set iff ``e_k > 2u - s``, i.e.
``u < (e_k + s) / 2``.  Hence the affected window's left edge is
``ceil((e_k + s) / 2)`` (or 1 when fewer than ``k`` executed slots lie
below ``s``), and symmetrically the right edge is
``floor((f_k + s) / 2)`` with ``f_k`` the ``k``-th executed slot above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.instrumentation import OpCounters
from repro.core.quality import entropy_term
from repro.errors import ConfigurationError
from repro.util.sorted_slots import SortedSlots

__all__ = ["EVALUATOR_BACKENDS", "SlotChange", "TemporalQualityEvaluator"]


@dataclass(frozen=True, slots=True)
class SlotChange:
    """One slot whose finishing probability changed during an update."""

    slot: int
    old_p: float
    new_p: float

    @property
    def quality_delta(self) -> float:
        """Change in the slot's quality contribution phi(p)."""
        return entropy_term(self.new_p) - entropy_term(self.old_p)


EVALUATOR_BACKENDS = ("python", "numpy")


class TemporalQualityEvaluator:
    """Incremental quality bookkeeping for a single task.

    Slots are 1-based local indices ``1..m``.  The evaluator starts
    with no executed slots (quality 0) and is mutated exclusively via
    :meth:`execute`.

    ``backend`` selects the evaluation strategy: ``"python"`` (the
    default) is the scalar reference implementation and determinism
    oracle; ``"numpy"`` evaluates whole affected windows in one
    vectorized pass through :mod:`repro.core.kernels`.  Both expose
    the same API, agree on every probability to float round-off, and
    increment the :class:`OpCounters` identically for equivalent
    logical work, so solvers produce identical plans on either.
    """

    def __init__(
        self,
        m: int,
        k: int,
        *,
        counters: OpCounters | None = None,
        backend: str = "python",
    ):
        if m < 3:
            raise ConfigurationError(f"m must be >= 3, got {m}")
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if backend not in EVALUATOR_BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; choose one of {EVALUATOR_BACKENDS}"
            )
        self.m = m
        self.k = k
        self.backend = backend
        self.counters = counters if counters is not None else OpCounters()
        self._executed = SortedSlots()
        self._reliability: dict[int, float] = {}
        # _p[j] for j in 1..m (index 0 unused).
        self._p = [0.0] * (m + 1)
        self._quality = 0.0
        self._kernel = None
        if backend == "numpy":
            from repro.core.kernels import get_kernel

            self._kernel = get_kernel(m, k)
            self._p = np.zeros(m + 1, dtype=np.float64)
            self._phi = np.zeros(m + 1, dtype=np.float64)
            self._totals = np.zeros(m + 1, dtype=np.float64)
            self._dfar = np.full(m + 1, self._kernel.NO_KTH, dtype=np.int64)
            self._efar = np.zeros(m + 1, dtype=np.int64)
            self._lamfar = np.zeros(m + 1, dtype=np.float64)
            self._exec_mask = np.zeros(m + 1, dtype=bool)
            self._exec_arr = np.empty(0, dtype=np.int64)
            self._exec_lam = np.empty(0, dtype=np.float64)
            self._all_unit = True

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def quality(self) -> float:
        """Current task quality q(tau) (Eq. 1)."""
        return self._quality

    @property
    def executed_slots(self) -> list[int]:
        """Sorted executed slot indices."""
        return self._executed.as_list()

    @property
    def executed_count(self) -> int:
        """Number of executed slots."""
        return len(self._executed)

    def is_executed(self, slot: int) -> bool:
        """True iff ``slot`` has been executed."""
        return slot in self._executed

    def p(self, slot: int) -> float:
        """Current finishing probability of ``slot``."""
        self._check_slot(slot)
        return float(self._p[slot])

    def rho_err(self, slot: int) -> float:
        """Current interpolation error ratio of ``slot`` (Eq. 3/5).

        For executed slots the ratio is 0 by definition.
        """
        self._check_slot(slot)
        if slot in self._executed:
            return 0.0
        neighbors = self._neighbors_of(slot)
        weighted = sum(self._reliability[e] * abs(e - slot) for e in neighbors)
        weighted += (self.k - len(neighbors)) * self.m
        return weighted / (self.k * self.m)

    def kth_nn_distance(self, slot: int) -> int:
        """Distance to the ``k``-th nearest executed slot (``m`` if fewer)."""
        self._check_slot(slot)
        neighbors = self._executed.k_nearest(slot, self.k, exclude=slot)
        if len(neighbors) < self.k:
            return self.m
        return abs(neighbors[-1] - slot)

    def farthest_neighbor(self, slot: int) -> tuple[int, float] | None:
        """``(distance, reliability)`` of the ``k``-th nearest executed
        neighbour of ``slot``, or ``None`` if fewer than ``k`` exist.

        Used by the tree index to tighten the Eq.-6 upper bound: a
        tentative execution can evict at most this neighbour from the
        slot's k-NN set.
        """
        self._check_slot(slot)
        neighbors = self._executed.k_nearest(slot, self.k, exclude=slot)
        if len(neighbors) < self.k:
            return None
        e = neighbors[-1]
        return abs(e - slot), self._reliability[e]

    def knn_of(self, slot: int) -> list[int]:
        """The current ``SkNN`` set of ``slot`` (executed neighbours,
        nearest first, ties toward the smaller index)."""
        self._check_slot(slot)
        return self._neighbors_of(slot)

    # ------------------------------------------------------------------
    # Affected window
    # ------------------------------------------------------------------
    def affected_window(self, slot: int) -> tuple[int, int]:
        """Closed interval of slots whose k-NN set may change if
        ``slot`` is executed (always contains ``slot`` itself)."""
        self._check_slot(slot)
        e_k = self._executed.kth_left(slot, self.k)
        f_k = self._executed.kth_right(slot, self.k)
        lo = 1 if e_k is None else max(1, (e_k + slot + 1) // 2)  # ceil
        hi = self.m if f_k is None else min(self.m, (f_k + slot) // 2)  # floor
        return lo, hi

    # ------------------------------------------------------------------
    # Gains
    # ------------------------------------------------------------------
    def gain_if_executed(self, slot: int, reliability: float = 1.0) -> float:
        """Quality increment of tentatively executing ``slot``.

        Uses the local-update strategy: only slots inside
        :meth:`affected_window` are re-evaluated.
        """
        lo, hi = self.affected_window(slot)
        return self._gain_over_range(slot, reliability, lo, hi)

    def gain_full_rescan(self, slot: int, reliability: float = 1.0) -> float:
        """Quality increment computed the naive way (Algorithm 1):
        every slot's probability is recomputed."""
        return self._gain_over_range(slot, reliability, 1, self.m)

    def _gain_over_range(self, slot: int, reliability: float, lo: int, hi: int) -> float:
        self._check_slot(slot)
        self._check_reliability(reliability)
        if slot in self._executed:
            raise ConfigurationError(f"slot {slot} already executed")
        if self._kernel is not None:
            return self._gain_over_range_numpy(slot, reliability, lo, hi)
        counters = self.counters
        counters.gain_evaluations += 1
        p = self._p
        delta = entropy_term(reliability / self.m) - entropy_term(p[slot])
        counters.slot_evaluations += 1
        # The reliability map's keys are exactly the executed slots; a
        # dict lookup is cheaper than the sorted set's bisect.
        executed = self._reliability
        p_with_extra = self._p_with_extra
        for u in range(lo, hi + 1):
            if u == slot or u in executed:
                continue
            new_p = p_with_extra(u, slot, reliability)
            counters.slot_evaluations += 1
            delta += entropy_term(new_p) - entropy_term(p[u])
        return delta

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def execute(self, slot: int, reliability: float = 1.0) -> list[SlotChange]:
        """Execute ``slot`` and return every slot whose probability
        changed (including ``slot`` itself)."""
        self._check_slot(slot)
        self._check_reliability(reliability)
        if slot in self._executed:
            raise ConfigurationError(f"slot {slot} already executed")
        if self._kernel is not None:
            return self._execute_numpy(slot, reliability)
        lo, hi = self.affected_window(slot)
        changes: list[SlotChange] = []

        old_p = self._p[slot]
        new_p = reliability / self.m
        self._executed.add(slot)
        self._reliability[slot] = reliability
        self._apply_change(slot, old_p, new_p, changes)

        for u in range(lo, hi + 1):
            if u == slot or u in self._executed:
                continue
            recomputed = self._p_of(u)
            self.counters.slot_evaluations += 1
            if recomputed != self._p[u]:
                self._apply_change(u, self._p[u], recomputed, changes)
        return changes

    # ------------------------------------------------------------------
    # NumPy backend (vectorized window passes via repro.core.kernels)
    # ------------------------------------------------------------------
    def _window_unexecuted(self, lo: int, hi: int, exclude: int):
        """Unexecuted slot indices in ``[lo, hi]`` minus ``exclude``."""
        u = np.arange(lo, hi + 1, dtype=np.int64)
        mask = ~self._exec_mask[lo : hi + 1]
        if lo <= exclude <= hi:
            mask[exclude - lo] = False
        return u[mask]

    def _gain_over_range_numpy(
        self, slot: int, reliability: float, lo: int, hi: int
    ) -> float:
        kernel = self._kernel
        self.counters.gain_evaluations += 1
        # The candidate's own flip, counted exactly like the scalar path.
        delta = kernel.phi_executed(reliability) - float(self._phi[slot])
        self.counters.slot_evaluations += 1
        us = self._window_unexecuted(lo, hi, slot)
        n_affected = int(us.size)
        self.counters.slot_evaluations += n_affected
        self.counters.knn_queries += n_affected
        if n_affected == 0:
            return delta
        new_totals = kernel.merge_totals(
            slot,
            reliability,
            us,
            self._totals[us],
            self._dfar[us],
            self._efar[us],
            self._lamfar[us],
        )
        unit = self._all_unit and reliability == 1.0
        new_phi = kernel.phi_of_totals(new_totals, unit=unit)
        # Accumulate in the scalar path's exact sequential order
        # (self term first, then ascending slots): cumsum is a strict
        # left-to-right reduction, unlike np.sum's pairwise one, so
        # mathematically tied candidates produce bitwise-identical
        # gains on both backends and tie-breaking stays plan-stable.
        terms = np.empty(n_affected + 1, dtype=np.float64)
        terms[0] = delta
        np.subtract(new_phi, self._phi[us], out=terms[1:])
        return float(np.cumsum(terms)[-1])

    def _execute_numpy(self, slot: int, reliability: float) -> list[SlotChange]:
        kernel = self._kernel
        lo, hi = self.affected_window(slot)
        changes: list[SlotChange] = []

        old_p = float(self._p[slot])
        new_p = reliability / self.m
        self._executed.add(slot)
        self._reliability[slot] = reliability
        if reliability != 1.0:
            self._all_unit = False
        self._exec_mask[slot] = True
        self._exec_arr = np.array(self._executed.as_list(), dtype=np.int64)
        self._exec_lam = np.array(
            [self._reliability[e] for e in self._exec_arr], dtype=np.float64
        )
        new_phi_slot = kernel.phi_executed(reliability)
        self._quality += new_phi_slot - float(self._phi[slot])
        self._p[slot] = new_p
        self._phi[slot] = new_phi_slot
        changes.append(SlotChange(slot, old_p, new_p))

        us = self._window_unexecuted(lo, hi, slot)
        n_affected = int(us.size)
        self.counters.slot_evaluations += n_affected
        self.counters.knn_queries += n_affected
        if n_affected:
            totals, dfar, efar, lamfar = kernel.batch_knn(
                self._exec_arr, self._exec_lam, us
            )
            new_p_arr = totals / kernel.denom
            new_phi = kernel.phi_of_totals(totals, unit=self._all_unit)
            old_p_arr = self._p[us]
            old_phi = self._phi[us]
            changed = new_p_arr != old_p_arr
            # Chain the deltas onto the running quality in the scalar
            # path's sequential ascending-slot order (unchanged slots
            # contribute an exact 0.0), keeping the quality bitwise
            # equal to the python backend in the unit regime — it
            # feeds exact comparisons (cover targets, best-single vs
            # stream, the MMQM weakest-task heap).
            terms = np.empty(n_affected + 1, dtype=np.float64)
            terms[0] = self._quality
            np.subtract(new_phi, old_phi, out=terms[1:])
            self._quality = float(np.cumsum(terms)[-1])
            self._totals[us] = totals
            self._dfar[us] = dfar
            self._efar[us] = efar
            self._lamfar[us] = lamfar
            self._p[us] = new_p_arr
            self._phi[us] = new_phi
            for idx in np.nonzero(changed)[0]:
                changes.append(
                    SlotChange(
                        int(us[idx]), float(old_p_arr[idx]), float(new_p_arr[idx])
                    )
                )
        return changes

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def recompute_quality(self) -> float:
        """Full recomputation of the quality from scratch (oracle)."""
        total = 0.0
        for slot in range(1, self.m + 1):
            total += entropy_term(self._p_of(slot))
        return total

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply_change(self, slot: int, old_p: float, new_p: float, out: list[SlotChange]):
        self._quality += entropy_term(new_p) - entropy_term(old_p)
        self._p[slot] = new_p
        out.append(SlotChange(slot, old_p, new_p))

    def _neighbors_of(self, slot: int) -> list[int]:
        self.counters.knn_queries += 1
        return self._executed.k_nearest(slot, self.k, exclude=slot)

    def _p_of(self, slot: int) -> float:
        """Probability of ``slot`` under the current executed set."""
        if slot in self._executed:
            return self._reliability[slot] / self.m
        m, k = self.m, self.k
        total = 0.0
        for e in self._neighbors_of(slot):
            total += self._reliability[e] * (m - abs(e - slot))
        return total / (k * m * m)

    def _p_with_extra(self, slot: int, extra: int, extra_reliability: float) -> float:
        """Probability of unexecuted ``slot`` if ``extra`` were executed."""
        m, k = self.m, self.k
        self.counters.knn_queries += 1
        reliability = self._reliability
        total = 0.0
        for e in self._executed.k_nearest_with(slot, k, extra):
            lam = extra_reliability if e == extra else reliability[e]
            total += lam * (m - abs(e - slot))
        return total / (k * m * m)

    def _check_slot(self, slot: int) -> None:
        if not 1 <= slot <= self.m:
            raise ConfigurationError(f"slot {slot} outside 1..{self.m}")

    def _check_reliability(self, lam: float) -> None:
        if not 0.0 <= lam <= 1.0:
            raise ConfigurationError(f"reliability out of range: {lam}")
