"""Set-function oracles over a scenario.

``SurrogateOracle`` is the truncated-average objective used by the saturating
solver: the mean over agents of min(agent value, gamma). Capping each agent at
gamma makes the average monotone and submodular even though the plain minimum
over agents is not, and the cap is exactly what the outer bisection searches.

``MinObjectiveOracle`` wraps the raw worst-agent objective behind the same
interface so baselines can greedily optimize it directly.

Handles and accounting contract shared by both:

* per-agent values are numpy vectors: running maxima of distances taken from
  the scenario's ``distances`` matrix (exact in IEEE arithmetic), built by
  ``scenario.agent_values`` and kept capped, as the reduction sees them
  (``min(value, gamma)`` for the surrogate). Capping commutes with the
  running maximum bit for bit, since min and max only select values, so an
  oracle caps ``distances`` once (``_capped``) and never again;
* gains are read through per-base handles. ``base`` makes a fresh handle of
  a set, scored from scratch and cold: its own value is charged with its
  first scan. A handle's gain lanes, the extension by *every* ground element
  at once, are built the first time it is asked for gains and kept with it:
  one ``np.maximum`` of the capped base vector against the capped matrix
  (the empty set's lanes are the capped matrix itself), one reduction.
  ``child`` makes the warm handle of the base plus an element from that
  element's lane, without scoring any agent again (a caller that charges
  it as a fresh set marks it ``cold``). Lanes are work, not
  evaluations: they charge nothing by themselves. At gamma == 0 every gain
  is known to be 0 and no lanes are built;
* every action id must lie in [0, M), or IndexError is raised before
  anything is scored: ``base`` checks a set's ids, ``marginal_gains``
  checks its candidates, and ``feasible`` (the greedies' path) checks once
  per base that its mask covers exactly [0, M). Candidates inside the base
  raise ValueError, checked by ``marginal_gains`` per call and by
  ``feasible`` once per base;
* every logical evaluation of the reduced objective charges one count per
  agent, even when the result is read from a handle or lane or is known
  trivially (gamma == 0);
* ``scan`` is the one charging path for gains: it reads gains in order and
  charges exactly what scanning them one at a time would, one evaluation
  per scanned candidate plus one for a cold base (never when gamma == 0).
  With ``stop_at`` the scan ends at the first candidate whose gain reaches
  it; lanes past that candidate are not charged;
* ``marginal_gains`` is a fresh handle, the checks and one ``scan``: every
  call charges its scanned candidates plus its base (unless gamma == 0);
* ``evaluate`` charges one evaluation and reads the value from the last
  handle ``base`` or ``child`` made when it is of the same set; otherwise
  it scores the set from scratch. The memo saves time only: it never
  changes a charge or a bit;
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

from .matroid import ground_ids
from .scenario import EvaluationCounter, Scenario, agent_values

# Curvature needs f on the full set minus each element; refuse huge grounds.
CURVATURE_GROUND_CAP = 20

# Clamps beyond this are reported; below it they are floating-point dust.
_CLAMP_TOL = 1e-9


class _Handle:
    """The handle of a set as a base: its capped per-agent values and its
    reduced value. The oracle fills in, on first use, the member mask and
    the gain lanes. ``cold`` marks a handle scored from scratch whose own
    value is charged with its first scan. A handle holds no reference to
    its oracle, so dropping an oracle frees its arrays at once.
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
        # The last handle ``base`` or ``child`` made, which ``evaluate``
        # reads instead of scoring the same set again.
        self._last: _Handle | None = None

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

    def _handle(self, subset: frozenset) -> _Handle:
        if not subset:  # every agent values the empty set at 0
            return _Handle(subset, np.zeros(self.scenario.n_agents), 0.0)
        values = agent_values(self.scenario, subset)
        return _Handle(subset, self._cap(values), float(self._reduce(values)))

    def _members(self, handle: _Handle) -> np.ndarray:
        if handle.members is None:
            handle.members = np.zeros(self.scenario.n_actions, dtype=bool)
            handle.members[list(handle.subset)] = True
        return handle.members

    def _gains(self, handle: _Handle) -> np.ndarray:
        """The handle's gain against every ground element, built once; the
        only place lanes are made. The empty set's lanes are the capped
        distance matrix itself; a known-zero oracle builds no lanes at all."""
        if handle.gains is None:
            if self._known_zero():
                handle.gains = np.zeros(self.scenario.n_actions)
            else:
                capped = self._capped
                handle.lanes = np.maximum(handle.values[:, None], capped) if handle.subset else capped
                handle.reduced = self._total(handle.lanes)
                handle.gains = handle.reduced - handle.value
        return handle.gains

    def _check_outside(self, handle: _Handle, ids: np.ndarray) -> None:
        if np.count_nonzero(self._members(handle)[ids]):
            raise ValueError("candidates must lie outside the base set")

    def base(self, subset: Iterable[int]) -> _Handle:
        """A fresh handle of ``subset`` as a base, scored from scratch (its
        ids are range-checked) and cold unless every value is known to be 0.
        Nothing is charged until it is scanned."""
        handle = self._last = self._handle(frozenset(subset))
        handle.cold = not self._known_zero()
        return handle

    def child(self, handle: _Handle, element: int) -> _Handle:
        """The warm handle of ``handle``'s set plus ``element`` (a non-member
        of a handle with lanes), read from the element's lane: no agent is
        scored again, and nothing is charged."""
        element = int(element)
        child = _Handle(handle.subset | {element}, handle.lanes[:, element], float(handle.reduced[element]))
        if handle.members is not None:
            child.members = handle.members.copy()
            child.members[element] = True
        self._last = child
        return child

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
        self._check_outside(handle, ids)
        return ids, self._gains(handle)[ids]

    def scan(self, handle: _Handle, gains: np.ndarray, stop_at: float | None = None) -> np.ndarray:
        """Scan ``gains``, the gains of non-member candidates against
        ``handle``, in order, and return the scanned prefix: up to and
        including the first gain >= ``stop_at``, or all of them. The one
        charging path: one evaluation per scanned candidate, plus one when
        the handle is cold, which it is not afterwards."""
        if stop_at is not None:
            hits = (gains >= stop_at).nonzero()[0]
            if hits.size:
                gains = gains[: hits[0] + 1]
        self._charge(gains.size + handle.cold)
        handle.cold = False
        return gains

    def evaluate(self, subset: Iterable[int]) -> float:
        """The reduced objective of ``subset``; charges one evaluation."""
        self._charge()
        chosen = frozenset(subset)
        last = self._last
        if last is not None and last.subset == chosen:
            return last.value
        return self._handle(chosen).value

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
        reaches it. Every call charges its scanned candidates plus its base
        (never at gamma == 0), whatever calls came before it.
        """
        ids = ground_ids(candidates, self.scenario.n_actions)
        base = self.base(subset)
        self._check_outside(base, ids)
        if ids.size == 0:
            return np.zeros(0)
        return self.scan(base, self._gains(base)[ids], stop_at)


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
