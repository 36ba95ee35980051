"""The set-function oracle over a scenario.

``SurrogateOracle`` is the truncated-average objective used by the saturating
solver: the mean over agents of min(agent value, gamma). Capping each agent at
gamma makes the average monotone and submodular even though the plain minimum
over agents is not, and the cap is exactly what the outer bisection searches.

Handles and accounting contract:

* per-agent values are numpy vectors: running maxima of distances taken from
  the scenario's ``distances`` matrix (exact in IEEE arithmetic), built by
  ``scenario.agent_values`` and kept capped, as the reduction sees them
  (``min(value, gamma)``). Capping commutes with the running maximum bit
  for bit, since min and max only select values, so the oracle caps
  ``distances`` once (``_capped``) and never again;
* gains are read through per-base handles. ``base`` makes a fresh handle of
  a set, scored from scratch and cold: its own value is charged with its
  first scan. A handle's gain lanes, the extension by *every* ground element
  at once, are built the first time it is asked for gains and kept with it:
  one ``np.maximum`` of the capped base vector against the capped matrix
  (the empty set's lanes are the capped matrix itself), one reduction.
  ``child`` makes the warm handle of the base plus an element from that
  element's lane, without scoring any agent again. Lanes are work, not
  evaluations: they charge nothing by themselves. A handle with every agent
  at gamma (any handle at gamma == 0) builds none: every gain is 0;
* every action id must lie in [0, M), or IndexError is raised before
  anything is scored: ``base`` checks a set's ids, and ``feasible`` checks
  once per base that its mask covers exactly [0, M). Candidates inside the
  base raise ValueError, checked by ``feasible`` once per base, which reads
  the mask at the set's ids;
* every logical evaluation of the reduced objective charges one count per
  agent, even when the result is read from a handle or lane or is known
  trivially (gamma == 0);
* ``charge_scan`` is the one charging call for gains: it charges exactly
  what scanning a number of candidates one at a time would, one evaluation
  per scanned candidate plus one for a cold base (never when gamma == 0,
  nor for a scan of no candidates). A caller reads the gains itself and
  charges the count of those it scanned, and lanes it never reads are not
  charged;
* ``evaluate`` charges one evaluation and reads the value from the last
  handle ``base`` or ``child`` made when it is of the same set; otherwise
  it scores the set from scratch, checking its ids before the charge. The
  memo saves time only: it never changes a charge, a bit or a refusal;
* every reduction runs over the agents in agent order, so lane and
  from-scratch values agree bit for bit. numpy reduces
  a C-contiguous 2-D array of two or more columns along axis 0 one row at a
  time, so those go through ``np.add.reduce(axis=0)``; a vector or a single
  column would be summed pairwise (from nine agents on) and can differ in
  the last bit, so those go through ``np.add.accumulate``.
"""

from __future__ import annotations

import warnings
from typing import Iterable

import numpy as np

from .matroid import is_real
from .scenario import EvaluationCounter, Scenario, agent_values

# Curvature needs f on the full set minus each element; refuse huge grounds.
CURVATURE_GROUND_CAP = 20

# Clamps beyond this are reported; below it they are floating-point dust.
_CLAMP_TOL = 1e-9


class _Handle:
    """The handle of a set as a base: its capped per-agent values and its
    reduced value. The oracle fills in the gain lanes on first use.
    ``cold`` marks a handle scored from scratch whose own value is charged
    with its first scan. A handle holds no reference to its oracle, so
    dropping an oracle frees its arrays at once.
    """

    __slots__ = ("subset", "values", "value", "cold", "lanes", "reduced", "gains")

    def __init__(self, subset: frozenset, values: np.ndarray, value: float) -> None:
        self.subset = subset
        self.values = values  # (N,), capped
        self.value = value
        self.cold = False
        self.lanes: np.ndarray | None = None  # (N, M): column j holds the capped values of subset | {j}
        self.reduced: np.ndarray | None = None  # (M,): the reduced objective of subset | {j}
        self.gains: np.ndarray | None = None  # (M,): reduced minus the set's value


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
        # A saturated value (N gammas summed, / N) is within N * 2**-53 of gamma: a first test.
        self._nearly_gamma = self.gamma * (1.0 - 2.0**-20)
        # The last handle ``base`` or ``child`` made, which ``evaluate``
        # reads instead of scoring the same set again.
        self._last: _Handle | None = None
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

    def _saturated(self, handle: _Handle) -> bool:
        """True when no element can raise any of the handle's values."""
        return handle.value >= self._nearly_gamma and np.minimum.reduce(handle.values) >= self.gamma

    def _charge(self, evaluations: int = 1) -> None:
        self.counter.add(evaluations * self._agents)

    def _handle(self, subset: frozenset) -> _Handle:
        if not subset:  # every agent values the empty set at 0
            return _Handle(subset, np.zeros(self._agents), 0.0)
        capped = self._cap(agent_values(self.scenario, subset))
        return _Handle(subset, capped, float(self._total(capped)))

    def gains(self, handle: _Handle) -> np.ndarray:
        """The handle's gain against every ground element, built once; the
        only place lanes are made (the empty set's are the capped matrix). A
        saturated handle builds none: each lane would equal its values, whose
        agent-order sum is its value bit for bit, so every gain is +0.0."""
        if handle.gains is None:
            if self._saturated(handle):
                handle.gains = np.zeros(self.scenario.n_actions)
            else:
                capped = self._capped
                if capped is None:
                    capped = self._capped = self._cap(self.scenario.distances)
                handle.lanes = np.maximum(handle.values[:, None], capped) if handle.subset else capped
                handle.reduced = self._total(handle.lanes)
                handle.gains = handle.reduced - handle.value
        return handle.gains

    def base(self, subset: Iterable[int]) -> _Handle:
        """A fresh handle of ``subset`` as a base, scored from scratch (its
        ids are range-checked) and cold unless gamma == 0, where every value
        is 0. Nothing is charged until it is scanned."""
        handle = self._last = self._handle(frozenset(subset))
        handle.cold = self.gamma != 0.0
        return handle

    def child(self, handle: _Handle, element: int) -> _Handle:
        """The warm handle of ``handle``'s set plus ``element`` (a non-member),
        read from the element's lane or, if ``handle`` is saturated, from
        ``handle``: no agent is scored again, and nothing is charged."""
        element = int(element)
        self.gains(handle)  # the lanes, unless saturated
        if handle.lanes is None:  # saturated: the set plus element has the same values
            values, value = handle.values, handle.value
        else:
            values, value = handle.lanes[:, element], float(handle.reduced[element])
        self._last = _Handle(handle.subset | {element}, values, value)
        return self._last

    def feasible(self, handle: _Handle, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ids a boolean mask over the ground set selects, ascending,
        with their gains against ``handle`` (no lanes are built when there are
        none). A mask of any other length is refused with IndexError, so
        every id is in range; a member of the set raises ValueError."""
        n = self.scenario.n_actions
        if mask.shape != (n,):
            raise IndexError(f"feasibility mask of shape {mask.shape} does not cover the ground set [0, {n})")
        ids = mask.nonzero()[0]
        if not ids.size:
            return ids, np.zeros(0)
        if any(mask[j] for j in handle.subset):
            raise ValueError("candidates must lie outside the base set")
        return ids, self.gains(handle)[ids]

    def charge_scan(self, handle: _Handle, scanned: int) -> None:
        """Charge a scan of ``scanned`` non-member candidates against
        ``handle``, one at a time: the one charging call for gains. One
        evaluation per candidate, plus one when the handle is cold, which it
        is not afterwards. A scan of no candidates evaluates nothing and
        charges nothing."""
        if scanned:
            self._charge(scanned + handle.cold)
            handle.cold = False

    def evaluate(self, subset: Iterable[int]) -> float:
        """The reduced objective of ``subset``; charges one evaluation once
        its ids have passed the checks. The memo is read only for a set
        without bools, which would compare equal to their ids."""
        chosen = frozenset(subset)
        last = self._last
        if last is not None and last.subset == chosen and bool not in map(type, chosen):
            value = last.value
        else:
            value = self._handle(chosen).value
        self._charge()
        return value


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
