"""Set-function oracles over a scenario.

``SurrogateOracle`` is the truncated-average objective used by the saturating
solver: the mean over agents of min(agent value, gamma). Capping each agent at
gamma makes the average monotone and submodular even though the plain minimum
over agents is not, and the cap is exactly what the outer bisection searches.

``MinObjectiveOracle`` wraps the raw worst-agent objective behind the same
interface so baselines can greedily optimize it directly.

Caching and accounting contract shared by both:

* per-agent values are numpy vectors: running maxima of distances taken from
  the scenario's ``distances`` matrix (exact in IEEE arithmetic), built by
  ``scenario.agent_values`` and kept capped, as the reduction sees them
  (``min(value, gamma)`` for the surrogate). Capping commutes with the
  running maximum bit for bit, since min and max only select values, so an
  oracle caps ``distances`` once (``_capped``) and never again;
* an oracle keeps two slots, the pinned base and the last extension, each a
  set with its capped per-agent vector and its reduced value. The extension
  slot is kept unbuilt, as the base it came from and the element it adds;
* a slot is also the handle of its set as a base (``base`` looks one up or
  makes a cold one). Its gain lanes, the extension by *every* ground element
  at once, are built the first time it is scanned and kept with it: one
  ``np.maximum`` of the capped base vector against the capped matrix (the
  empty set's lanes are the capped matrix itself), one reduction. ``child``
  makes the slot of the base plus an element from that element's lane,
  without scoring any agent again. Lanes are work, not evaluations: they
  charge nothing by themselves. At gamma == 0 every gain is known to be 0
  and no lanes are built;
* every action id must lie in [0, M), or IndexError is raised before
  anything is scored: a set's ids are checked when its slot is built from
  scratch, ``marginal_gains`` checks its candidates, and ``feasible`` (the
  threshold greedy's path) checks once per base that its mask covers
  exactly [0, M). Candidates inside the base raise ValueError, checked by
  ``marginal_gains`` per call and by ``feasible`` once per base;
* every logical evaluation of the reduced objective charges one count per
  agent, even when the result comes from a slot or lane or is known
  trivially (gamma == 0);
* ``scan`` is the one charging path for gains: it reads candidates in order
  and charges exactly what scanning them one at a time would, one
  evaluation per scanned candidate plus one for a cold base (never when
  gamma == 0). With ``stop_at`` the scan ends at the first candidate whose
  gain reaches it; lanes past that candidate are not charged. Afterwards
  the base is pinned and the extension slot is the base plus the last
  scanned candidate, which is what the one-at-a-time scan leaves behind;
* ``marginal_gains`` is a lookup, the checks and one ``scan``;
  ``marginal_gain`` is its one-candidate case;
* every reduction runs over the agents in agent order, so batched,
  single-candidate and from-scratch values agree bit for bit. numpy reduces
  a C-contiguous 2-D array of two or more columns along axis 0 one row at a
  time, so those go through ``np.add.reduce(axis=0)``; a vector or a single
  column would be summed pairwise (from nine agents on) and can differ in
  the last bit, so those go through ``np.add.accumulate``.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property
from typing import Iterable

import numpy as np

from .scenario import EvaluationCounter, Scenario, action_ids, agent_values

# Curvature needs f on the full set minus each element; refuse huge grounds.
CURVATURE_GROUND_CAP = 20

# Clamps beyond this are reported; below it they are floating-point dust.
_CLAMP_TOL = 1e-9


class _Slot:
    """A set with its capped per-agent values and its reduced value.

    A slot is also the handle of its set as a base: the oracle fills in, on
    first use, the member mask and the gain lanes. ``cold`` marks a slot
    built for a scan that found the set in neither of the oracle's slots;
    its own value is charged with its first scan. A slot holds no reference
    to its oracle, so dropping an oracle frees its arrays at once.
    """

    __slots__ = ("subset", "values", "value", "cold", "members", "lanes", "reduced", "gains")

    def __init__(self, subset: frozenset, values: np.ndarray, value: float) -> None:
        self.subset = subset
        self.values = values  # (N,), capped
        self.value = value
        self.cold = False
        self.members: np.ndarray | None = None  # bool (M,): True on the set's ids
        self.lanes: np.ndarray | None = None  # (N, M): column j holds the capped values of subset | {j}
        self.reduced: np.ndarray | None = None  # (M,): the reduced objective of subset | {j}
        self.gains: np.ndarray | None = None  # (M,): reduced minus the set's value


class _ProximityOracleBase:
    """Evaluation machinery shared by the surrogate and min oracles."""

    def __init__(self, scenario: Scenario, counter: EvaluationCounter | None = None) -> None:
        self.scenario = scenario
        self.counter = EvaluationCounter() if counter is None else counter
        self._pinned: _Slot | None = None
        # The extension slot, kept unbuilt: a scanned slot and the last
        # candidate its scan reached.
        self._ext: tuple[_Slot, int] | None = None

    # -- subclass hooks ------------------------------------------------
    def _cap(self, values: np.ndarray) -> np.ndarray:
        """Per-agent values as the reduction sees them."""
        return values

    def _total(self, capped: np.ndarray) -> np.ndarray:
        """Reduce capped per-agent values along axis 0, in agent order."""
        raise NotImplementedError

    def _known_zero(self) -> bool:
        """True when every value is 0 without looking at the agents."""
        return False

    # -- shared machinery ----------------------------------------------
    def _reduce(self, values: np.ndarray) -> np.ndarray:
        """The reduced objective of per-agent values (one set per column)."""
        return self._total(self._cap(values))

    @cached_property
    def _capped(self) -> np.ndarray:
        """The distance matrix capped once, so that lanes need no capping."""
        return self._cap(self.scenario.distances)

    def _charge(self, evaluations: int = 1) -> None:
        self.counter.add(evaluations * self.scenario.n_agents)

    def _slot(self, subset: frozenset) -> _Slot:
        if not subset:  # every agent values the empty set at 0
            return _Slot(subset, np.zeros(self.scenario.n_agents), 0.0)
        values = agent_values(self.scenario, subset)
        return _Slot(subset, self._cap(values), float(self._reduce(values)))

    def _cached(self, subset: frozenset) -> _Slot | None:
        if self._pinned is not None and self._pinned.subset == subset:
            return self._pinned
        if self._ext is not None:
            slot, element = self._ext
            if subset == slot.subset | {int(element)}:
                return self.child(slot, element)
        return None

    def _members(self, slot: _Slot) -> np.ndarray:
        if slot.members is None:
            slot.members = np.zeros(self.scenario.n_actions, dtype=bool)
            slot.members[list(slot.subset)] = True
        return slot.members

    def _gains(self, slot: _Slot) -> np.ndarray:
        """The slot's gain against every ground element, built once; the
        only place lanes are made. The empty set's lanes are the capped
        distance matrix itself; a known-zero oracle builds no lanes at all."""
        if slot.gains is None:
            if self._known_zero():
                slot.gains = np.zeros(self.scenario.n_actions)
            else:
                capped = self._capped
                slot.lanes = np.maximum(slot.values[:, None], capped) if slot.subset else capped
                slot.reduced = self._total(slot.lanes)
                slot.gains = slot.reduced - slot.value
        return slot.gains

    def _check_outside(self, slot: _Slot, ids: np.ndarray) -> None:
        if np.count_nonzero(self._members(slot)[ids]):
            raise ValueError("candidates must lie outside the base set")

    def base(self, subset: Iterable[int]) -> _Slot:
        """The handle of ``subset`` as a base: a cached slot, or a fresh cold
        one (its ids are range-checked). Nothing is pinned or charged until
        it is scanned."""
        chosen = frozenset(subset)
        slot = self._cached(chosen)
        if slot is None:
            slot = self._slot(chosen)
            slot.cold = not self._known_zero()
        return slot

    def child(self, slot: _Slot, element: int) -> _Slot:
        """The slot of ``slot``'s set plus ``element`` (a non-member of a
        slot with lanes), read from the element's lane: no agent is scored
        again, and nothing is charged."""
        element = int(element)
        child = _Slot(slot.subset | {element}, slot.lanes[:, element], float(slot.reduced[element]))
        if slot.members is not None:
            child.members = slot.members.copy()
            child.members[element] = True
        return child

    def feasible(self, slot: _Slot, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ids a boolean mask over the ground set selects, ascending,
        with their gains against ``slot`` (no lanes are built when there are
        none). A mask of any other length is refused with IndexError, so
        every id is in range; a member of the set raises ValueError."""
        n = self.scenario.n_actions
        if mask.shape != (n,):
            raise IndexError(f"feasibility mask of shape {mask.shape} does not cover the ground set [0, {n})")
        ids = mask.nonzero()[0]
        if not ids.size:
            return ids, np.zeros(0)
        self._check_outside(slot, ids)
        return ids, self._gains(slot)[ids]

    def scan(self, slot: _Slot, ids: np.ndarray, gains: np.ndarray, stop_at: float | None = None) -> np.ndarray:
        """Scan ``gains``, the gains against ``slot`` of the non-member
        candidates ``ids`` (at least one), in order, and return the scanned
        prefix: up to and including the first gain >= ``stop_at``, or all
        of them. The one charging path: one evaluation per scanned
        candidate, plus one when the slot is cold. Afterwards the slot is the
        pinned base and the extension slot is its set plus the last scanned
        candidate (a known-zero oracle keeps neither)."""
        if stop_at is not None:
            hits = (gains >= stop_at).nonzero()[0]
            if hits.size:
                gains = gains[: hits[0] + 1]
        self._charge(gains.size + slot.cold)
        slot.cold = False
        if not self._known_zero():
            self._pinned = slot
            self._ext = (slot, ids[gains.size - 1])
        return gains

    def evaluate(self, subset: Iterable[int]) -> float:
        self._charge()
        chosen = frozenset(subset)
        slot = self._cached(chosen)
        if slot is None:
            slot = self._pinned = self._slot(chosen)
        return slot.value

    def marginal_gains(
        self,
        subset: Iterable[int],
        candidates: Iterable[int],
        stop_at: float | None = None,
    ) -> np.ndarray:
        """Gains of adding each candidate (none may be in ``subset``) to
        ``subset``, in candidate order.

        With ``stop_at`` only the scanned prefix comes back: the gains up to
        and including the first one >= ``stop_at``, or all of them when none
        reaches it. Charges follow the module contract.
        """
        chosen = frozenset(subset)
        ids = action_ids(self.scenario, candidates)
        base = self.base(chosen)
        self._check_outside(base, ids)
        if ids.size == 0:
            return np.zeros(0)
        return self.scan(base, ids, self._gains(base)[ids], stop_at)

    def marginal_gain(self, subset: Iterable[int], element: int) -> float:
        """Value of adding ``element`` to ``subset``; 0, uncharged, when it
        is already present."""
        chosen = frozenset(subset)
        if element in chosen:
            return 0.0
        return float(self.marginal_gains(chosen, (element,))[0])


class SurrogateOracle(_ProximityOracleBase):
    """Truncated-average surrogate at saturation level ``gamma``.

    Values lie in [0, gamma]; the empty set evaluates to 0; equality with
    gamma means every agent is saturated. At gamma == 0 ``marginal_gains``
    returns zeros without touching the per-agent objectives but still pays
    the standard charge so evaluation counts stay comparable.
    """

    def __init__(
        self,
        scenario: Scenario,
        gamma: float,
        counter: EvaluationCounter | None = None,
    ) -> None:
        if not isinstance(gamma, (int, float)) or not math.isfinite(gamma) or gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
        super().__init__(scenario, counter)
        self.gamma = float(gamma)

    def _cap(self, values: np.ndarray) -> np.ndarray:
        return np.minimum(values, self.gamma)

    def _total(self, capped: np.ndarray) -> np.ndarray:
        if capped.ndim == 2 and capped.shape[1] > 1 and capped.flags.c_contiguous:
            total = np.add.reduce(capped, axis=0)
        else:
            total = np.add.accumulate(capped, axis=0)[-1]
        return total / len(capped)

    def _known_zero(self) -> bool:
        return self.gamma == 0.0


class MinObjectiveOracle(_ProximityOracleBase):
    """The raw worst-agent objective behind the oracle interface. Monotone
    but not submodular; useful for direct greedy baselines and reporting."""

    def _total(self, capped: np.ndarray) -> np.ndarray:
        return capped.min(axis=0)


def compute_curvature(oracle, ground: Iterable[int]) -> float:
    """Curvature in [0, 1] of the monotone set function behind ``oracle``
    over the given ground ids: one minus the worst ratio of an element's
    marginal value at the full set to its singleton value, taken over
    elements with positive singleton value. A function with no positive
    singleton is flat; its curvature is defined as 0 here.

    Results are clamped to [0, 1]; clamps beyond floating-point dust raise
    a RuntimeWarning (the oracle is probably not monotone submodular).
    """
    ids = sorted(set(ground))
    if len(ids) > CURVATURE_GROUND_CAP:
        raise ValueError(
            f"curvature computation limited to ground sets of size <= {CURVATURE_GROUND_CAP}, got {len(ids)}"
        )
    full = frozenset(ids)
    f_full = oracle.evaluate(full)
    worst_ratio = None
    for a in ids:
        f_single = oracle.evaluate(frozenset((a,)))
        if f_single <= 0.0:
            continue
        ratio = (f_full - oracle.evaluate(full - {a})) / f_single
        if worst_ratio is None or ratio < worst_ratio:
            worst_ratio = ratio
    if worst_ratio is None:
        return 0.0
    raw = 1.0 - worst_ratio
    if raw < -_CLAMP_TOL or raw > 1.0 + _CLAMP_TOL:
        warnings.warn(
            f"curvature {raw!r} outside [0, 1]; clamped. Is the oracle monotone submodular?",
            RuntimeWarning,
            stacklevel=2,
        )
    return min(1.0, max(0.0, raw))
