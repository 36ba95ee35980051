"""Independence oracles over integer action ids: uniform and partition
matroids, plus an exhaustive axiom checker for small ground sets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Collection, Iterable

import numpy as np

# Exhaustive axiom checking enumerates every subset pair; refuse beyond this.
AXIOM_CHECK_CAP = 12
_INTP_MAX = int(np.iinfo(np.intp).max)


def is_int(value: object) -> bool:
    """True for an integer that is not a bool (JSON's true/false are not ids
    or counts)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    """True for a finite real number that is not a bool: a finite float, or
    an ``is_int`` integer that converts to a finite double."""
    try:
        return (is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an integer past the largest double
        return False


def ground_ids(subset: Iterable[int], n: int) -> np.ndarray:
    """``subset`` as an integer array, after checking every id lies in the
    ground set [0, n) and is not a bool.

    A bool is seen only if it reaches this function. ``True == 1`` and
    ``hash(True) == hash(1)``, so a set that holds an id and the bool equal
    to it (``{1, True}``) has already collapsed to the id (``{1}``) when it
    is built, and is read as that id: keeping bools out of such a set is
    the caller's responsibility."""
    items = list(subset)
    if not items:
        return np.zeros(0, dtype=np.intp)
    # np.asarray reads True as 1 in a list of ints.
    if bool in map(type, items):
        raise IndexError("action ids must be integers, got bool")
    ids = np.asarray(items).reshape(-1)
    if ids.dtype.kind not in "iu":
        raise IndexError(f"action ids must be integers, got {ids.dtype}")
    index = ids.astype(np.intp, copy=False)
    if not index.size:  # an integer array with no entries, say of shape (1, 0)
        return index
    # Negative ids wrap to huge unsigned values, so one max checks both ends.
    # The builtin max, since queried id sets are small: on a handful of ids
    # a numpy reduction costs three times the list.
    if max(index.view(np.uintp).tolist()) >= n:
        bad = ids[(ids < 0) | (ids >= n)][0]
        raise IndexError(f"action id {bad} outside ground set [0, {n})")
    return index


def _distinct_ids(subset: Collection[int], n: int) -> np.ndarray:
    """The ids ``subset`` names, each once (a list may repeat an id), as a
    range-checked array."""
    return ground_ids(subset if isinstance(subset, (set, frozenset)) else set(subset), n)


class Feasibility:
    """The feasibility state of a set that grows from empty one element at a
    time: ``mask`` is a boolean mask over the ground set whose entry ``e`` is
    ``can_extend(set, e)``, and ``add(e)`` puts an element the mask allows
    into the set, raising IndexError for an id outside the ground set and
    ValueError for any other element the mask refuses (a member, or one
    that breaks independence). This generic state asks ``can_extend`` of
    every element again after each ``add``; the built-in matroids update
    their mask in place instead.

    The contract every greedy checks (``solvers._feasible``) before it
    reads a candidate from a state, its own included: ``mask`` is a boolean
    array of shape (M,), and a mask of any other shape makes the solver
    raise IndexError; for the threshold greedy only, the mask admits no
    member of the set, or it raises ValueError."""

    def __init__(self, matroid: "Matroid") -> None:
        self.matroid = matroid
        self.chosen: set[int] = set()
        self.mask = self._extendable()

    def add(self, element: int) -> None:
        self._admit(element)
        self.chosen.add(element)
        self.mask = self._extendable()

    def _extendable(self) -> np.ndarray:
        n = self.matroid.n_actions
        return np.fromiter((self.matroid.can_extend(self.chosen, e) for e in range(n)), dtype=bool, count=n)

    def _admit(self, element: int) -> None:
        n = len(self.mask)
        if not (is_int(element) or isinstance(element, np.integer)) or not 0 <= element < n:
            raise IndexError(f"action id {element!r} is not an id of the ground set [0, {n})")
        if not self.mask[element]:
            raise ValueError(f"action id {element} cannot extend the set")


class Matroid:
    """Base independence oracle. Subclasses define ``is_independent`` and
    ``n_actions``, and may override ``feasibility`` with a faster state.
    The greedies grow their set from empty through one state, whose mask the
    built-in matroids update with a few numpy calls per element added; the
    generic state asks ``can_extend`` of every element again."""

    n_actions: int

    def is_independent(self, subset: Collection[int]) -> bool:
        raise NotImplementedError

    def can_extend(self, subset: Collection[int], element: int) -> bool:
        """True iff subset + element is independent. Never claims a
        self-extension: element already in subset returns False."""
        if element in subset:
            return False
        return self.is_independent(frozenset(subset) | {element})

    def feasibility(self) -> Feasibility:
        """A feasibility state of the empty set, for growing it one element
        at a time. An override keeps ``Feasibility``'s contract: its
        ``mask`` is a boolean array of shape (M,), and every greedy raises
        IndexError for a mask of any other shape; for ``threshold_greedy``
        only, the mask admits no member of the set, or it raises
        ValueError."""
        return Feasibility(self)


class _UniformFeasibility(Feasibility):
    """``room`` counts the elements the set can still take."""

    def __init__(self, matroid: "UniformMatroid") -> None:
        self.room = matroid.rank
        self.mask = np.full(matroid.n_actions, True)  # the rank is at least 1

    def add(self, element: int) -> None:
        self._admit(element)
        self.mask[element] = False
        self.room -= 1
        if not self.room:
            self.mask[:] = False


class _PartitionFeasibility(Feasibility):
    """``room`` counts, per block, the elements the set can still take."""

    def __init__(self, matroid: "PartitionMatroid") -> None:
        self.block_of = matroid._block_of
        self.room = list(matroid.capacities)
        self.mask = (matroid._capacity_of > 0)[self.block_of]

    def add(self, element: int) -> None:
        self._admit(element)
        self.mask[element] = False
        block = self.block_of[element]
        self.room[block] -= 1
        if not self.room[block]:
            self.mask[self.block_of == block] = False


@dataclass(frozen=True)
class UniformMatroid(Matroid):
    """All subsets of size at most ``rank`` are independent."""

    n_actions: int
    rank: int

    def __post_init__(self) -> None:
        if not is_int(self.n_actions) or self.n_actions < 0:
            raise ValueError(f"matroid.n_actions must be an integer >= 0, got {self.n_actions!r}")
        if not is_int(self.rank) or self.rank < 1:
            raise ValueError("matroid.rank must be a positive integer")

    def is_independent(self, subset: Collection[int]) -> bool:
        return _distinct_ids(subset, self.n_actions).size <= self.rank

    def feasibility(self) -> Feasibility:
        return _UniformFeasibility(self)


@dataclass(frozen=True)
class PartitionMatroid(Matroid):
    """Ground set split into disjoint blocks, each with its own capacity.
    A subset is independent iff it takes at most ``capacities[b]`` elements
    from block ``b``. Blocks must cover exactly the ids 0..M-1.

    ``blocks`` and ``capacities`` are stored as tuples, read before any
    check, so a partition given as lists hashes and equals the same one
    given as tuples, and a block given as an iterator keeps its ids. A
    block that cannot be iterated raises TypeError there.

    A valid spec is accepted by set-level checks, without a loop per id:
    every capacity and every id is of type ``int`` exactly, the capacities
    lie in [0, np.intp max], and the sorted ids are 0..M-1. ``_block_of``
    is then filled by one scatter of the block numbers. Any other spec (a
    fault, or ids or capacities of an ``int`` subclass, which are valid)
    goes through the check of one capacity and one id at a time, which
    names the first fault or accepts it."""

    blocks: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]
    # Per id its block, and per block its capacity, as arrays.
    _block_of: np.ndarray = field(init=False, repr=False, compare=False)
    _capacity_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(map(tuple, self.blocks)))
        object.__setattr__(self, "capacities", tuple(self.capacities))
        if len(self.blocks) != len(self.capacities):
            raise ValueError("matroid: one capacity per block is required")
        block_of = self._scatter_block_of()
        if block_of is None:
            block_of = self._checked_block_of()
        object.__setattr__(self, "_block_of", block_of)
        object.__setattr__(self, "_capacity_of", np.array(self.capacities, dtype=np.intp))

    def _scatter_block_of(self) -> np.ndarray | None:
        """The block of each id, if the set-level checks accept the spec;
        None otherwise."""
        caps = self.capacities
        sizes = [len(block) for block in self.blocks]
        ids = list(chain.from_iterable(self.blocks))
        if not (
            set(map(type, caps)) <= {int}
            and set(map(type, ids)) <= {int}
            and (not caps or (min(caps) >= 0 and max(caps) <= _INTP_MAX))
            and sorted(ids) == list(range(len(ids)))
        ):
            return None
        # The ids are distinct ints in [0, M), so they fill every entry.
        block_of = np.empty(len(ids), dtype=np.intp)
        block_of[np.fromiter(ids, np.intp, len(ids))] = np.arange(len(sizes), dtype=np.intp).repeat(sizes)
        return block_of

    def _checked_block_of(self) -> np.ndarray:
        """The block of each id, after checking one capacity and one id at a
        time; raises ValueError naming the first fault."""
        for cap in self.capacities:
            # The capacities are held as np.intp.
            if not is_int(cap) or not 0 <= cap <= _INTP_MAX:
                raise ValueError(f"matroid.capacity must be an integer >= 0 and <= {_INTP_MAX}, got {cap!r}")
        block_of: dict[int, int] = {}
        for b, block in enumerate(self.blocks):
            for e in block:
                if not is_int(e) or e < 0:
                    raise ValueError("matroid.blocks: action ids must be integers >= 0")
                if e in block_of:
                    raise ValueError(f"matroid.blocks: action id {e} appears in two blocks")
                block_of[e] = b
        if sorted(block_of) != list(range(len(block_of))):
            missing = next(i for i in range(len(block_of) + 1) if i not in block_of)
            raise ValueError(f"matroid.blocks: action id {missing} is outside all blocks")
        return np.array([block_of[e] for e in range(len(block_of))], dtype=np.intp)

    @property
    def n_actions(self) -> int:
        return len(self._block_of)

    def is_independent(self, subset: Collection[int]) -> bool:
        chosen = _distinct_ids(subset, self.n_actions)
        counts = np.bincount(self._block_of[chosen], minlength=len(self.blocks))
        return not (counts > self._capacity_of).any()

    def feasibility(self) -> Feasibility:
        return _PartitionFeasibility(self)


def matroid_to_dict(matroid: Matroid) -> dict:
    """Serializable form used inside scenario JSON files."""
    if isinstance(matroid, UniformMatroid):
        return {"type": "uniform", "rank": matroid.rank}
    if isinstance(matroid, PartitionMatroid):
        spec: dict = {"type": "partition", "blocks": [list(b) for b in matroid.blocks]}
        caps = set(matroid.capacities)
        if len(caps) <= 1:
            spec["capacity"] = matroid.capacities[0] if matroid.capacities else 0
        else:
            spec["capacities"] = list(matroid.capacities)
        return spec
    raise ValueError(f"matroid: cannot serialize {type(matroid).__name__}")


def matroid_from_dict(spec: dict, n_actions: int) -> Matroid:
    """Parse the matroid entry of a scenario file; validation errors name
    the offending field."""
    if not isinstance(spec, dict):
        raise ValueError("scenario config: field 'matroid' must be an object")
    kind = spec.get("type")
    if kind == "uniform":
        rank = spec.get("rank")
        if not is_int(rank) or rank < 1:
            raise ValueError("scenario config: field 'matroid.rank' must be a positive integer")
        return UniformMatroid(n_actions=n_actions, rank=rank)
    if kind == "partition":
        blocks = spec.get("blocks")
        if not isinstance(blocks, list):
            raise ValueError("scenario config: field 'matroid.blocks' must be a list of id lists")
        for block in blocks:
            if not isinstance(block, list) or not all(map(is_int, block)):
                raise ValueError("scenario config: field 'matroid.blocks' must contain integer ids")
        if "capacities" in spec:
            capacities = spec["capacities"]
            if not isinstance(capacities, list) or len(capacities) != len(blocks):
                raise ValueError("scenario config: field 'matroid.capacities' must list one capacity per block")
        else:
            z = spec.get("capacity")
            if not is_int(z):
                raise ValueError("scenario config: field 'matroid.capacity' must be an integer")
            capacities = [z] * len(blocks)
        try:
            matroid = PartitionMatroid(blocks, capacities)
        except ValueError as exc:
            raise ValueError(f"scenario config: {exc}") from None
        if matroid.n_actions != n_actions:
            raise ValueError(
                "scenario config: field 'matroid.blocks' must cover every action id exactly once"
            )
        return matroid
    raise ValueError("scenario config: field 'matroid.type' must be 'uniform' or 'partition'")


def all_subsets(items: Iterable[int]) -> list[frozenset]:
    """Every subset of ``items``, in binary counting order over the sorted
    items: bit i of the position selects the i-th smallest item."""
    ordered = sorted(set(items))
    return [
        frozenset(e for i, e in enumerate(ordered) if mask >> i & 1)
        for mask in range(1 << len(ordered))
    ]


def check_matroid_axioms(matroid) -> bool:
    """Exhaustively verify the three matroid axioms over every subset of the
    ground set: the empty set is independent, independence is closed under
    taking subsets, and any smaller independent set can be augmented from a
    larger one. Accepts anything with ``n_actions`` and ``is_independent``.

    Enumeration is exponential; ground sets above AXIOM_CHECK_CAP are refused.
    """
    n = matroid.n_actions
    if n > AXIOM_CHECK_CAP:
        raise ValueError(f"axiom check limited to ground sets of size <= {AXIOM_CHECK_CAP}, got {n}")
    independent = {s for s in all_subsets(range(n)) if matroid.is_independent(s)}

    if frozenset() not in independent:
        return False
    for s in independent:
        for v in s:
            if s - {v} not in independent:
                return False
    for a in independent:
        for b in independent:
            if len(b) < len(a) and not any(b | {v} in independent for v in a - b):
                return False
    return True
