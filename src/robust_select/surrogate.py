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
* every action id, in a set or a candidate list, must lie in [0, M); others
  raise IndexError before anything is scored;
* every logical evaluation of the reduced objective charges one count per
  agent, even when the result comes from a slot or is known trivially
  (gamma == 0);
* ``marginal_gains`` scores many candidates against one base in a single
  array call and charges exactly what scanning them one at a time would: one
  evaluation per scanned candidate, plus one for the base when it is in
  neither slot (never when gamma == 0). With ``stop_at`` the scan ends at the
  first candidate whose gain reaches it; lanes computed past that candidate
  are discarded and not charged. Afterwards the base is pinned and the
  extension slot holds the base plus the last scanned candidate, which is
  what the one-at-a-time scan leaves behind;
* ``marginal_gain`` is the one-candidate case of ``marginal_gains``;
* every reduction runs over the agents in agent order
  (``np.add.accumulate`` along axis 0), so batched, single-candidate and
  from-scratch values agree bit for bit. Plain ``np.sum`` is not safe here:
  on a single column of nine or more agents it switches to pairwise
  summation and can differ in the last bit.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable

import numpy as np

from .scenario import EvaluationCounter, Scenario, action_ids, agent_values

# Curvature needs f on the full set minus each element; refuse huge grounds.
CURVATURE_GROUND_CAP = 20

# Clamps beyond this are reported; below it they are floating-point dust.
_CLAMP_TOL = 1e-9

_CacheSlot = tuple[frozenset, np.ndarray, float]


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
        self._base: _CacheSlot | None = None
        self._ext: _CacheSlot | None = None

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

    def _slot(self, subset: frozenset) -> _CacheSlot:
        values = agent_values(self.scenario, subset)
        return subset, values, float(self._reduce(values))

    def _cached(self, subset: frozenset) -> _CacheSlot | None:
        for slot in (self._base, self._ext):
            if slot is not None and slot[0] == subset:
                return slot
        return None

    def evaluate(self, subset: Iterable[int]) -> float:
        self._charge()
        chosen = frozenset(subset)
        slot = self._cached(chosen)
        if slot is None:
            slot = self._base = self._slot(chosen)
        return slot[2]

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
        if not chosen.isdisjoint(ids.tolist()):
            raise ValueError("marginal_gains: candidates must lie outside the base set")
        if ids.size == 0:
            return np.zeros(0)
        if self._known_zero():
            action_ids(self.scenario, chosen)
            gains = _scanned_prefix(np.zeros(ids.size), stop_at)
            self._charge(gains.size)
            return gains
        base = self._cached(chosen)
        if base is None:
            self._charge()
            base = self._slot(chosen)
        self._base = base
        ext = np.maximum(base[1][:, None], self.scenario.distances[:, ids])
        ext_values = self._reduce(ext)
        gains = _scanned_prefix(ext_values - base[2], stop_at)
        last = gains.size - 1
        self._charge(gains.size)
        self._ext = (chosen | {int(ids[last])}, ext[:, last].copy(), float(ext_values[last]))
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
        return np.add.accumulate(capped, axis=0)[-1] / len(values)

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
