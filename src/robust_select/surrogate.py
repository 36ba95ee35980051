"""The set-function oracle over a scenario.

``SurrogateOracle`` is the truncated-average objective used by the saturating
solver: the mean over agents of min(agent value, gamma). Capping each agent at
gamma makes the average monotone and submodular even though the plain minimum
over agents is not, and the cap is exactly what the outer bisection searches.

Lanes and accounting contract:

* per-agent values are numpy vectors: running maxima of distances taken from
  the scenario's ``distances`` matrix (exact in IEEE arithmetic), built by
  ``scenario.agent_values`` and kept capped, as the reduction sees them
  (``min(value, gamma)``). Capping commutes with the running maximum bit
  for bit, since min and max only select values, so the oracle caps
  ``distances`` once (``_capped``) and never again;
* a caller that grows a set one element at a time (the threshold greedy)
  holds each base itself: its capped values and its value. ``lanes`` gives
  a base's extension by *every* ground element at once, in one call: one
  ``np.maximum`` of the capped base vector against the capped matrix (the
  empty set's lanes are the capped matrix itself) and one reduction. Column
  j of the lanes is the capped values of the base plus j, and entry j of
  the reduced row its value, so the caller takes the next base from them
  without scoring any agent again. A base with every agent at gamma (any
  base at gamma == 0) gets no lanes: every gain is 0;
* lanes are work, not evaluations: they charge nothing. The caller charges
  what scanning its candidates one at a time would, through ``charge``: one
  evaluation per scanned candidate, plus one for a base scored from
  scratch (cold) when it is first scanned;
* every logical evaluation of the reduced objective charges one count per
  agent, even when the result is read from lanes or is known trivially
  (gamma == 0);
* ``evaluate`` scores a set from scratch, checking its ids (IndexError
  outside [0, M)) before it charges one evaluation;
* every reduction runs over the agents in agent order, so lane and
  from-scratch values agree bit for bit. numpy reduces
  a C-contiguous 2-D array of two or more columns along axis 0 one row at a
  time, so those go through ``np.add.reduce(axis=0)``; a vector or a single
  column would be summed pairwise (from nine agents on) and can differ in
  the last bit, so those go through ``np.add.accumulate``.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable

import numpy as np

from .matroid import is_real
from .scenario import EvaluationCounter, Scenario, agent_values

# Curvature needs f on the full set minus each element; refuse huge grounds.
CURVATURE_GROUND_CAP = 20


class SurrogateOracle:
    """Truncated-average surrogate at saturation level ``gamma``.

    Values lie in [0, gamma]; the empty set evaluates to 0; equality with
    gamma means every agent is saturated.
    """

    def __init__(
        self,
        scenario: Scenario,
        gamma: float,
        counter: EvaluationCounter | None = None,
    ) -> None:
        if not is_real(gamma) or gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
        self.scenario = scenario
        self.counter = EvaluationCounter() if counter is None else counter
        self.gamma = float(gamma)
        self._agents = scenario.n_agents
        # A saturated base's value, N gammas summed and divided by N, is never below this.
        self._nearly_gamma = self.gamma - self.mean_error(self._agents, self.gamma)
        # The distance matrix capped once, on first use, so that lanes need no capping.
        self._capped: np.ndarray | None = None

    def _cap(self, values: np.ndarray) -> np.ndarray:
        """Per-agent values as the reduction sees them."""
        return np.minimum(values, self.gamma)

    def _total(self, capped: np.ndarray) -> np.ndarray:
        """Average capped per-agent values along axis 0, in agent order."""
        if capped.ndim == 2 and capped.shape[1] > 1 and capped.flags.c_contiguous:
            total = np.add.reduce(capped, axis=0)
        else:
            total = np.add.accumulate(capped, axis=0)[-1]
        return total / len(capped)

    @staticmethod
    def mean_error(n: int, magnitude: float) -> float:
        """A bound on |float mean - exact mean| of ``n`` values averaged as
        ``_total`` averages them, whose magnitudes average at most
        ``magnitude`` (the largest will do). Summing them in any order is off
        by at most k u / (1 - k u) times the sum of their magnitudes, k = n - 1
        and u = 2**-53 (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., section 4.2: gamma_k), and dividing by n by half
        an ulp of the mean, which lies below 2 * magnitude: in all at most
        k u / (1 - k u) * magnitude + ulp(magnitude). Each of the three
        roundings here steps up one double, so the result is never below it."""
        ku = (n - 1) * 2.0**-53  # exact, and so is 1 - ku
        factor = math.nextafter(ku / (1.0 - ku), math.inf)
        return math.nextafter(math.nextafter(factor * magnitude, math.inf) + math.ulp(magnitude), math.inf)

    def _saturated(self, values: np.ndarray | None, value: float) -> bool:
        """True when no element can raise any of a base's values (None: the
        empty set's, every one 0)."""
        return value >= self._nearly_gamma and (0.0 if values is None else np.minimum.reduce(values)) >= self.gamma

    def charge(self, evaluations: int) -> None:
        """Charge ``evaluations`` evaluations of the reduced objective, one
        count per agent each."""
        self.counter.add(evaluations * self._agents)

    def lanes(self, values: np.ndarray | None = None, value: float = 0.0) -> tuple[np.ndarray, np.ndarray] | None:
        """The gain lanes of a base given by its capped per-agent values and
        its value (the empty set's without them), and their reduced row:
        column j of the lanes holds the capped values of the base plus
        element j, and entry j of the row its value, so the gain of j is
        that entry minus ``value``. The empty set's lanes are the capped
        matrix itself. A saturated base gets None and no lanes are built:
        each lane would equal its values, whose agent-order sum is its value
        bit for bit, so every gain is +0.0. Charges nothing."""
        if self._saturated(values, value):
            return None
        capped = self._capped
        if capped is None:
            capped = self._capped = self._cap(self.scenario.distances)
        lanes = capped if values is None else np.maximum(values[:, None], capped)
        return lanes, self._total(lanes)

    def evaluate(self, subset: Iterable[int]) -> float:
        """The reduced objective of ``subset``, scored from scratch; charges
        one evaluation once its ids have passed the checks."""
        chosen = frozenset(subset)
        value = float(self._total(self._cap(agent_values(self.scenario, chosen)))) if chosen else 0.0
        self.charge(1)
        return value


def compute_curvature(oracle, ground: Iterable[int]) -> float:
    """Curvature in [0, 1] of the monotone set function behind ``oracle``
    over the given ground ids: one minus the worst ratio of an element's
    marginal value at the full set to its singleton value, taken over
    elements with positive singleton value. A function with no positive
    singleton is flat; its curvature is defined as 0 here.

    Results are clamped to [0, 1]; a clamp beyond rounding (a
    ``SurrogateOracle``'s values within ``mean_error`` of exact, any other
    oracle's exact) raises a RuntimeWarning (probably not monotone submodular).
    """
    ids = sorted(set(ground))
    if len(ids) > CURVATURE_GROUND_CAP:
        raise ValueError(
            f"curvature computation limited to ground sets of size <= {CURVATURE_GROUND_CAP}, got {len(ids)}"
        )
    full = frozenset(ids)
    f_full = oracle.evaluate(full)
    worst = None  # the least ratio, with its element's gain and singleton value
    for a in ids:
        f_single = oracle.evaluate(frozenset((a,)))
        if f_single <= 0.0:
            continue
        gain = f_full - oracle.evaluate(full - {a})
        if worst is None or gain / f_single < worst[0]:
            worst = gain / f_single, gain, f_single
    if worst is None:
        return 0.0
    ratio, gain, f_single = worst
    raw = 1.0 - ratio
    error = SurrogateOracle.mean_error(oracle._agents, oracle.gamma) if isinstance(oracle, SurrogateOracle) else 0.0
    # The exact gain lies in [0, f_single]; the computed one is off by two errors, or three (4 multiplies exactly).
    if gain < -2.0 * error or gain > f_single + 4.0 * error:
        warnings.warn(
            f"curvature {raw!r} outside [0, 1]; clamped. Is the oracle monotone submodular?",
            RuntimeWarning,
            stacklevel=2,
        )
    return min(1.0, max(0.0, raw))
