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
  ``scenario.agent_values``. An oracle keeps two slots, the pinned base and
  the last extension it computed, each holding a set, its per-agent vector
  and its reduced value;
* the first ``marginal_gains`` call on a pinned base computes its gain
  lanes: the extension of the base by *every* ground element at once (one
  ``np.maximum`` of the base vector against ``distances``, one reduction),
  kept beside the base with a boolean member mask of the base set. Later
  calls on the same base index into the lanes; pinning another base drops
  them. Lanes are work, not evaluations: they charge nothing by themselves;
* every action id, in a set or a candidate list, must lie in [0, M); others
  raise IndexError before anything is scored;
* every logical evaluation of the reduced objective charges one count per
  agent, even when the result comes from a slot or lane or is known
  trivially (gamma == 0);
* ``marginal_gains`` scores many candidates against one base and charges
  exactly what scanning them one at a time would: one evaluation per
  scanned candidate, plus one for the base when it is in neither slot
  (never when gamma == 0). With ``stop_at`` the scan ends at the first
  candidate whose gain reaches it; lanes past that candidate are not
  charged. Afterwards the base is pinned and the extension slot holds the
  base plus the last scanned candidate (a column of the lanes), which is
  what the one-at-a-time scan leaves behind;
* ``marginal_gain`` is the one-candidate case of ``marginal_gains``;
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
from typing import Iterable, NamedTuple

import numpy as np

from .scenario import EvaluationCounter, Scenario, action_ids, agent_values

# Curvature needs f on the full set minus each element; refuse huge grounds.
CURVATURE_GROUND_CAP = 20

# Clamps beyond this are reported; below it they are floating-point dust.
_CLAMP_TOL = 1e-9


class _Lanes(NamedTuple):
    """Every ground element's extension of one base set."""

    members: np.ndarray  # bool (M,): True on the base set's ids
    values: np.ndarray  # (N, M): column j holds the per-agent values of base | {j}
    reduced: np.ndarray  # (M,): the reduced objective of base | {j}
    gains: np.ndarray  # (M,): reduced minus the base's value


class _Slot:
    """A set with its per-agent values and its reduced value; ``lanes`` is
    filled in when the slot is the pinned base of a ``marginal_gains`` call."""

    __slots__ = ("subset", "values", "value", "lanes")

    def __init__(self, subset: frozenset, values: np.ndarray, value: float) -> None:
        self.subset = subset
        self.values = values
        self.value = value
        self.lanes: _Lanes | None = None


def _scanned_prefix(gains: np.ndarray, stop_at: float | None) -> np.ndarray:
    """The gains up to and including the first that reaches ``stop_at``."""
    if stop_at is not None:
        hits = np.flatnonzero(gains >= stop_at)
        if hits.size:
            return gains[: hits[0] + 1]
    return gains


class _ProximityOracleBase:
    """Evaluation machinery shared by the surrogate and min oracles."""

    def __init__(self, scenario: Scenario, counter: EvaluationCounter | None = None) -> None:
        self.scenario = scenario
        self.counter = EvaluationCounter() if counter is None else counter
        self._base: _Slot | None = None
        self._ext: _Slot | None = None

    # -- subclass hooks ------------------------------------------------
    def _reduce(self, values: np.ndarray) -> np.ndarray:
        """Reduce per-agent values along axis 0, in agent order."""
        raise NotImplementedError

    def _known_zero(self) -> bool:
        """True when every value is 0 without looking at the agents."""
        return False

    # -- shared machinery ----------------------------------------------
    def _charge(self, evaluations: int = 1) -> None:
        self.counter.add(evaluations * self.scenario.n_agents)

    def _slot(self, subset: frozenset) -> _Slot:
        values = agent_values(self.scenario, subset)
        return _Slot(subset, values, float(self._reduce(values)))

    def _cached(self, subset: frozenset) -> _Slot | None:
        for slot in (self._base, self._ext):
            if slot is not None and slot.subset == subset:
                return slot
        return None

    def _lanes(self, slot: _Slot) -> _Lanes:
        if slot.lanes is None:
            members = np.zeros(self.scenario.n_actions, dtype=bool)
            members[list(slot.subset)] = True
            values = np.maximum(slot.values[:, None], self.scenario.distances)
            reduced = self._reduce(values)
            slot.lanes = _Lanes(members, values, reduced, reduced - slot.value)
        return slot.lanes

    def evaluate(self, subset: Iterable[int]) -> float:
        self._charge()
        chosen = frozenset(subset)
        slot = self._cached(chosen)
        if slot is None:
            slot = self._base = self._slot(chosen)
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
        base = self._cached(chosen)
        cold = base is None
        if cold:
            base = self._slot(chosen)
        lanes = self._lanes(base)
        if lanes.members[ids].any():
            raise ValueError("marginal_gains: candidates must lie outside the base set")
        if ids.size == 0:
            return np.zeros(0)
        if self._known_zero():
            gains = _scanned_prefix(np.zeros(ids.size), stop_at)
            self._charge(gains.size)
            return gains
        if cold:
            self._charge()
        self._base = base
        gains = _scanned_prefix(lanes.gains[ids], stop_at)
        self._charge(gains.size)
        last = int(ids[gains.size - 1])
        self._ext = _Slot(chosen | {last}, lanes.values[:, last], float(lanes.reduced[last]))
        return gains

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

    def _reduce(self, values: np.ndarray) -> np.ndarray:
        capped = np.minimum(values, self.gamma)
        if capped.ndim == 2 and capped.shape[1] > 1 and capped.flags.c_contiguous:
            total = np.add.reduce(capped, axis=0)
        else:
            total = np.add.accumulate(capped, axis=0)[-1]
        return total / len(values)

    def _known_zero(self) -> bool:
        return self.gamma == 0.0


class MinObjectiveOracle(_ProximityOracleBase):
    """The raw worst-agent objective behind the oracle interface. Monotone
    but not submodular; useful for direct greedy baselines and reporting."""

    def _reduce(self, values: np.ndarray) -> np.ndarray:
        return values.min(axis=0)


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
