"""Problem instances: agent/action geometry, per-agent proximity objectives,
and the worst-case (minimum over agents) system objective.

Each agent values an action set by the largest distance from itself to any
selected action; the system is scored by its worst agent, which is exactly
what an attacker removing the best agent's contribution leaves behind.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from dataclasses import dataclass
from itertools import chain, product, starmap
from typing import Iterable

import numpy as np

from .matroid import Matroid, ground_ids, matroid_from_dict, matroid_to_dict

# Agent-action pairs a scenario may have: about 720 MB, at the ~24 bytes a pair a solve holds.
DISTANCE_PAIRS_CAP = 30_000_000

# Pairs one chunk of the distance pass holds: its float64 and long-double
# planes take 48 bytes a pair, 3 MB in all. Each thread holds one such pair
# of buffers (``_distance_workspace``) and reuses it for every matrix it
# builds; only the pages a chunk touches count toward the resident set.
_DISTANCE_CHUNK = 1 << 16
# Relative half-width w of the band that certifies a long-double distance:
# twice its error bound on x87, and wider than IEEE quad's. The pass reads
# the band's ends, 1 + w and 1 - w.
_CERTIFY_WIDTH = 2.0**-62
_CERTIFY_BAND = (np.longdouble(1.0) + _CERTIFY_WIDTH, np.longdouble(1.0) - _CERTIFY_WIDTH)
# Distances below this go to math.dist, which rounds twice near the subnormal range.
_CERTIFY_TINY = 2.0**-960
# The pass runs on coordinates smaller than this in magnitude: every
# difference, square and distance of it then stays finite. The band certifies
# only x87 and IEEE quad long doubles; elsewhere (float64) the pass never runs.
_PASS_EXTENT = 2.0**510 if np.finfo(np.longdouble).nmant in (63, 112) else 0.0


def _coords(label: str, coords: Iterable[tuple[float, float]] | np.ndarray) -> tuple[np.ndarray, float]:
    """(x, y) rows as a sealed C-contiguous float64 (n, 2) array, and the
    largest magnitude among its coordinates (0.0 for no rows). A sealed
    array (``_sealed``), such as another scenario's, is returned as it is;
    any other array is copied once into a sealed one; a list or tuple of
    rows (any other iterable is read into a tuple first) has its row lengths
    checked once and its coordinates read by one ``np.fromiter`` over them
    all, then sealed. A row that is not an (x, y) pair is refused with
    ValueError (TypeError for an array that is not two-dimensional, or a row
    with no length), a complex coordinate with TypeError and a coordinate
    that is not finite with ValueError."""
    if isinstance(coords, np.ndarray):
        if _sealed(coords):
            array = coords
        elif np.iscomplexobj(coords):
            raise TypeError(f"scenario {label}: coordinates must be real, got complex dtype {coords.dtype}")
        else:
            array = np.asarray(coords, dtype=np.float64)
        if array.ndim != 2:
            raise TypeError(f"scenario {label}: expected (x, y) rows, got an array of shape {array.shape}")
    else:
        rows = coords if isinstance(coords, (list, tuple)) else tuple(coords)
        if not set(map(len, rows)) <= {2}:
            raise ValueError(f"scenario {label}: expected (x, y) rows, got a row of another length")
        array = np.fromiter(chain.from_iterable(rows), np.float64, 2 * len(rows))
        array.shape = (len(rows), 2)
    if array.shape[1] != 2:
        raise ValueError(f"scenario {label}: expected (x, y) rows, got an array of shape {array.shape}")
    extent = float(np.maximum.reduce(np.abs(array), axis=None, initial=0.0))
    if not extent <= sys.float_info.max:  # NaN fails the comparison too
        raise ValueError(f"scenario {label}: coordinates must be finite")
    if not _sealed(array):
        array = np.ndarray(array.shape, np.float64, array.tobytes())
    return array, extent


def _sealed(array: np.ndarray) -> bool:
    """Whether ``array`` is a C-contiguous float64 array over a ``bytes``
    object. Such an array is read-only for good: bytes are immutable, so
    numpy refuses ``setflags(write=True)`` on it and on every view of it
    with ValueError. An array over its own or a caller's memory is not:
    whoever holds it can make it writeable again."""
    return array.dtype == np.float64 and type(array.base) is bytes and array.flags.c_contiguous


class _cached_property:
    """``functools.cached_property`` without its lock: a non-data descriptor
    that computes the value on the first read and stores it in the
    instance's ``__dict__``, where every later read finds it before the
    descriptor. Before Python 3.12 ``cached_property`` holds one lock for
    every instance of the class, so threads building different scenarios'
    distances would run one at a time. Two threads reading one instance's
    value at once may both compute it; the last one stored is kept."""

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner: type | None = None):
        if instance is None:
            return self
        value = self.func(instance)
        instance.__dict__[self.name] = value
        return value


class EvaluationCounter:
    """Tally of objective evaluations: computing one agent's objective on one
    set counts 1. Divide by the agent count (``f_equivalent``) to compare
    algorithms that evaluate the averaged surrogate against ones that touch
    individual objectives directly. Counts never decrease."""

    __slots__ = ("individual_evals",)

    def __init__(self) -> None:
        self.individual_evals = 0

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("evaluation counts only grow")
        self.individual_evals += n

    def f_equivalent(self, n_agents: int) -> float:
        return self.individual_evals / n_agents

    def __repr__(self) -> str:
        return f"EvaluationCounter({self.individual_evals})"


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable problem instance: agent and action locations plus the
    selection constraint over action ids 0..M-1. Safe to share across
    threads; all mutable run state lives in per-run counters.

    ``agents`` and ``actions`` are sealed, C-contiguous float64 arrays of
    shape (N, 2) and (M, 2), 16 bytes a point, over immutable ``bytes``:
    numpy refuses to make them writeable again, so nothing can change a
    scenario under its cached distances. The constructor takes (x, y) rows
    in any form ``from_coords`` does and copies them into such arrays,
    except arrays already sealed, so building a scenario from another's
    arrays (or ``dataclasses.replace``) copies nothing. Scenarios compare
    and hash by value: equal coordinates and an equal matroid."""

    agents: np.ndarray
    actions: np.ndarray
    matroid: Matroid

    def __post_init__(self) -> None:
        agents, agents_extent = _coords("agents", self.agents)
        object.__setattr__(self, "agents", agents)
        if len(self.agents) < 1:
            raise ValueError("scenario needs at least one agent")
        actions, actions_extent = _coords("actions", self.actions)
        object.__setattr__(self, "actions", actions)
        if self.matroid.n_actions != len(self.actions):
            raise ValueError("matroid ground set size does not match the action count")
        # The largest coordinate magnitude, which decides whether the distance
        # pass may run.
        object.__setattr__(self, "_extent", max(agents_extent, actions_extent))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            np.array_equal(self.agents, other.agents)
            and np.array_equal(self.actions, other.actions)
            and self.matroid == other.matroid
        )

    def __hash__(self) -> int:
        # Adding 0.0 turns -0.0 into 0.0, which compares equal to it.
        return hash(((self.agents + 0.0).tobytes(), (self.actions + 0.0).tobytes(), self.matroid))

    def __reduce__(self):
        # Unpickled arrays are writeable: rebuild through the constructor.
        return type(self), (self.agents, self.actions, self.matroid)

    @classmethod
    def from_coords(
        cls,
        agents: Iterable[tuple[float, float]] | np.ndarray,
        actions: Iterable[tuple[float, float]] | np.ndarray,
        matroid: Matroid,
    ) -> "Scenario":
        """A scenario from (x, y) rows: an array of shape (n, 2), or a list
        or tuple of pairs (lists, tuples or 1-D arrays). The same as calling
        the constructor; the coordinates are copied unless they already are
        a sealed array, such as another scenario's."""
        return cls(agents, actions, matroid)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @_cached_property
    def distances(self) -> np.ndarray:
        """Agent-to-action distance matrix, one row per agent: a read-only,
        C-contiguous float64 N x M array, built on first use so constructing
        a scenario stays free of numpy work. It is an array over a read-only
        memoryview of the matrix, which numpy refuses to make writeable
        again (ValueError); ``d.base.obj`` still reaches the writeable
        matrix behind it, which only deliberate circumvention would write
        to. Every entry has the bits of ``math.dist`` of its (agent, action)
        pair. More than DISTANCE_PAIRS_CAP pairs are refused with ValueError
        before allocating.

        The bits matter: every selection and golden file rests on them, and
        the plain vectorised forms round differently. Over 100 generated
        scenarios of each benchmark workload (seeds 1 and 101), ``np.hypot``
        differed in the last bit on 136-154 of 25,000 paper-quadrant pairs,
        2,508-2,576 of 480,000 ring-uniform pairs and 5,764-5,842 of
        1,024,000 crowd-grid pairs, and ``np.sqrt(dx * dx + dy * dy)`` on
        about 16% of all pairs.

        So the matrix is built by a certified pass, in chunks of at most
        _DISTANCE_CHUNK pairs (whole rows, or part of a row when one row
        holds more) written into one preallocated matrix. A chunk's
        temporaries are views of a workspace held per thread: one float64
        and one long-double buffer of 2 * _DISTANCE_CHUNK entries, allocated
        by the thread's first matrix and reused by every later one. So the
        pass holds at most one chunk beyond the matrix, whatever its shape,
        and threads building matrices at once never share a buffer. The float64
        differences dx and dy are the ones ``math.dist`` takes; their
        squares, sum and square root in long double give R. On x87 (64-bit
        significand, unit roundoff u = 2**-64) the squares and the sum put
        the sum of squares within about 2u of its true value, the root
        halves that and adds its own u, so R is within 2u = 2**-63 of the
        true distance D, relatively. ``math.dist`` is CPython's
        correction-step hypot (Borges, "An Improved Algorithm for
        hypot(a,b)", 2019): before its last rounding it is within far less
        than u D of D. R (1 + w) and R (1 - w), with w = _CERTIFY_WIDTH =
        2**-62 = 4u, are cast to float64. Both ends lie about u D or more
        beyond D (to first order in u, after the long-double products round),
        so where the two casts agree, rounding to nearest (monotone) maps
        everything between them, D and ``math.dist``'s unrounded result
        included, to that one double: it is the correctly rounded D and
        ``math.dist``'s result. Every other pair takes ``math.dist`` itself,
        its (x, y) rows read only for those pairs: the 0.2-0.3% of workload
        pairs near a rounding midpoint, and any distance below
        _CERTIFY_TINY (``math.dist`` rounds twice below the normal range;
        under a numpy error state that raises on underflow, such a distance
        sends its whole chunk to ``math.dist``).
        Coordinates of magnitude _PASS_EXTENT = 2**510 or more, where a
        square could overflow a double, skip the pass: every pair takes
        ``math.dist``. So does every matrix where long double is neither
        x87 nor IEEE quad (float64 on Windows and macOS arm64: _PASS_EXTENT
        is 0 there), since the band would certify no pair. The quad long
        double of aarch64 Linux is certified by the same bound, is slower,
        and has not been measured. Checked in exact
        rational arithmetic, ``math.dist`` was correctly rounded on every
        pair tried: the 4,157 pairs it took in 300 benchmark-pool matrices
        (seed 11, 100 a workload) and 200,000 near-midpoint pairs.

        A matrix whose largest entry times 2 N is not a finite double is
        refused with ValueError: that covers an infinite distance, the
        surrogate's sum over agents and the bisection's midpoint sum."""
        n, m = len(self.agents), len(self.actions)
        if n * m > DISTANCE_PAIRS_CAP:
            raise ValueError(f"N x M = {n} x {m} exceeds DISTANCE_PAIRS_CAP = {DISTANCE_PAIRS_CAP}")
        if self._extent < _PASS_EXTENT:
            array = _certified_distances(self.agents, self.actions)
        else:
            pairs = product(self.agents.tolist(), self.actions.tolist())
            array = np.fromiter(starmap(math.dist, pairs), np.float64, n * m).reshape(n, m)
        largest = float(np.maximum.reduce(array, axis=None, initial=0.0))
        if not math.isfinite(2 * n * largest):
            raise ValueError(
                f"largest distance {largest!r} exceeds the distance scale limit "
                f"{sys.float_info.max / (2 * n):.6g} = float64 max / (2 x {n} agents): "
                "2 x N x the largest distance must be finite"
            )
        return np.asarray(memoryview(array).toreadonly())


# The distance pass's work buffers, one pair for each thread: numpy releases
# the GIL inside the pass's ufunc loops, so two threads sharing one pair
# would overwrite each other's chunks.
_workspace = threading.local()


def _distance_workspace() -> tuple[np.ndarray, np.ndarray]:
    """This thread's flat float64 and long-double buffers of
    2 * _DISTANCE_CHUNK entries each, allocated on the thread's first matrix
    and kept for every later one."""
    try:
        return _workspace.buffers
    except AttributeError:
        _workspace.buffers = np.empty(2 * _DISTANCE_CHUNK), np.empty(2 * _DISTANCE_CHUNK, np.longdouble)
        return _workspace.buffers


def _certified_distances(agents: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """``math.dist`` of every (agent, action) pair, one row per agent, by the
    certified pass ``Scenario.distances`` describes, a chunk of at most
    _DISTANCE_CHUNK pairs at a time."""
    n, m = len(agents), len(actions)
    array = np.empty((n, m))
    rows, columns = min(n, max(1, _DISTANCE_CHUNK // max(1, m))), max(1, min(m, _DISTANCE_CHUNK))
    # One chunk's dx and dy (float64) and their squares (long double): views
    # of the leading 2 * rows * columns entries of this thread's workspace,
    # which holds one chunk and is reused by every chunk and every matrix
    # the thread builds. Allocated afresh for each matrix, their pages were
    # faulted in again whenever other work ran between matrices: about 90
    # minor page faults and a quarter of a crowd-grid matrix's time in
    # perfbench's loop (README's claims table). Allocated per chunk, as four
    # temporaries a call, they cost a crowd-grid matrix about 100 faults.
    size, shape = 2 * rows * columns, (2, rows, columns)
    flat_planes, flat_squares = _distance_workspace()
    planes, squares = flat_planes[:size].reshape(shape), flat_squares[:size].reshape(shape)
    for i in range(0, n, rows):
        for j in range(0, m, columns):
            chunk_agents, chunk_actions = agents[i : i + rows], actions[j : j + columns]
            out = array[i : i + rows, j : j + columns]
            differences, squared = planes[:, : out.shape[0], : out.shape[1]], squares[:, : out.shape[0], : out.shape[1]]
            try:
                np.subtract(chunk_agents.T[:, :, None], chunk_actions.T[:, None, :], out=differences)
                np.square(differences, out=squared, dtype=np.longdouble)
                root, lower = np.add(squared[0], squared[1], out=squared[0]), differences[0]
                np.sqrt(root, out=root)
                np.multiply(root, _CERTIFY_BAND[0], out=out)
                np.multiply(root, _CERTIFY_BAND[1], out=lower)
                doubtful = out != lower
                # The casts may agree on a distance too small to certify; one
                # reduction rules that out for almost every chunk.
                if np.minimum.reduce(out, axis=None, initial=math.inf) < _CERTIFY_TINY:
                    doubtful |= out < _CERTIFY_TINY
            except FloatingPointError:  # np.seterr(under="raise"), and a distance below the normal range
                doubtful = np.ones(out.shape, dtype=bool)
            pairs = doubtful.ravel().nonzero()[0]
            if len(pairs):
                k, l = np.unravel_index(pairs, out.shape)
                out[k, l] = list(map(math.dist, chunk_agents[k].tolist(), chunk_actions[l].tolist()))
    return array


def agent_values(scenario: Scenario, subset: Iterable[int]) -> np.ndarray:
    """Every agent's value of ``subset``: the largest distance from the
    agent to any selected action, 0 for the empty set. Charges nothing. A
    step-1 ``range`` with 0 <= start <= stop <= M (the trivial bound) reads a slice."""
    distances, n = scenario.distances, scenario.n_actions
    if isinstance(subset, range) and subset.step == 1 and 0 <= subset.start <= subset.stop <= n:
        return np.maximum.reduce(distances[:, subset.start : subset.stop], axis=1, initial=0.0)
    return np.maximum.reduce(distances[:, ground_ids(subset, n)], axis=1, initial=0.0)


def min_objective(
    scenario: Scenario,
    subset: Iterable[int],
    counter: EvaluationCounter | None = None,
) -> float:
    """Worst agent's value of ``subset``, the minimum of ``agent_values``;
    charges one evaluation per agent."""
    values = agent_values(scenario, subset)
    if counter is not None:
        counter.add(scenario.n_agents)
    return float(np.minimum.reduce(values))


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "agents": scenario.agents.tolist(),
        "actions": scenario.actions.tolist(),
        "matroid": matroid_to_dict(scenario.matroid),
    }


def scenario_from_dict(data: object) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError("scenario config: top level must be an object")
    agents = _coord_field(data, "agents", minimum=1)
    actions = _coord_field(data, "actions", minimum=0)
    if "matroid" not in data:
        raise ValueError("scenario config: field 'matroid' is missing")
    matroid = matroid_from_dict(data["matroid"], n_actions=len(actions))
    return Scenario(agents=agents, actions=actions, matroid=matroid)


def _coord_field(data: dict, name: str, minimum: int) -> np.ndarray:
    if name not in data:
        raise ValueError(f"scenario config: field '{name}' is missing")
    raw = data[name]
    if not isinstance(raw, list) or len(raw) < minimum:
        raise ValueError(
            f"scenario config: field '{name}' must be a list of at least {minimum} [x, y] pairs"
        )
    pairs = f"scenario config: field '{name}' must contain finite [x, y] pairs"
    if not (set(map(type, raw)) <= {list, tuple} and set(map(len, raw)) <= {2}):
        raise ValueError(pairs)
    # JSON true and false are not numbers: read as 1 and 0, they would load
    # a scenario that saves differently.
    types = set(map(type, chain.from_iterable(raw)))
    if bool in types or not all(issubclass(t, (int, float)) for t in types):
        raise ValueError(pairs)
    try:
        return _coords(name, raw)[0]
    except (OverflowError, ValueError):  # an integer past the largest double, or inf
        raise ValueError(pairs) from None


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario config {path}: invalid JSON ({exc})") from None
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario_to_dict(scenario), handle)
        handle.write("\n")
