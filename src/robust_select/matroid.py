"""Independence oracles over integer action ids: uniform and partition
matroids, plus an exhaustive axiom checker for small ground sets."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable

import numpy as np

# Exhaustive axiom checking enumerates every subset pair; refuse beyond this.
AXIOM_CHECK_CAP = 12


def _distinct(subset: Collection[int]) -> Collection[int]:
    """The ids ``subset`` names, each once: a list may repeat an id."""
    return subset if isinstance(subset, (set, frozenset)) else set(subset)


class Matroid:
    """Base independence oracle. Subclasses define ``is_independent`` and
    ``n_actions``; extension, mask and basis queries are derived from those
    and may be overridden with faster equivalents."""

    n_actions: int

    def is_independent(self, subset: Collection[int]) -> bool:
        raise NotImplementedError

    def can_extend(self, subset: Collection[int], element: int) -> bool:
        """True iff subset + element is independent. Never claims a
        self-extension: element already in subset returns False."""
        if element in subset:
            return False
        return self.is_independent(frozenset(subset) | {element})

    def extendable(self, subset: Collection[int]) -> np.ndarray:
        """Fresh boolean mask over the ground set whose entry ``e`` is
        ``can_extend(subset, e)``."""
        return np.fromiter(
            (self.can_extend(subset, e) for e in range(self.n_actions)),
            dtype=bool,
            count=self.n_actions,
        )

    def is_basis(self, subset: Collection[int]) -> bool:
        """True iff no remaining element can extend subset."""
        return all(
            not self.can_extend(subset, e)
            for e in range(self.n_actions)
            if e not in subset
        )


@dataclass(frozen=True)
class UniformMatroid(Matroid):
    """All subsets of size at most ``rank`` are independent."""

    n_actions: int
    rank: int

    def __post_init__(self) -> None:
        if self.n_actions < 0:
            raise ValueError("matroid: ground set size must be >= 0")
        if not isinstance(self.rank, int) or self.rank < 1:
            raise ValueError("matroid.rank must be a positive integer")

    def is_independent(self, subset: Collection[int]) -> bool:
        return len(_distinct(subset)) <= self.rank

    def extendable(self, subset: Collection[int]) -> np.ndarray:
        chosen = list(set(subset))
        mask = np.full(self.n_actions, len(chosen) < self.rank)
        mask[chosen] = False
        return mask

    def is_basis(self, subset: Collection[int]) -> bool:
        return len(_distinct(subset)) >= min(self.rank, self.n_actions)


@dataclass(frozen=True)
class PartitionMatroid(Matroid):
    """Ground set split into disjoint blocks, each with its own capacity.
    A subset is independent iff it takes at most ``capacities[b]`` elements
    from block ``b``. Blocks must cover exactly the ids 0..M-1."""

    blocks: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.capacities):
            raise ValueError("matroid: one capacity per block is required")
        for cap in self.capacities:
            if not isinstance(cap, int) or cap < 0:
                raise ValueError("matroid.capacity must be an integer >= 0")
        block_of: dict[int, int] = {}
        for b, block in enumerate(self.blocks):
            for e in block:
                if not isinstance(e, int) or e < 0:
                    raise ValueError("matroid.blocks: action ids must be integers >= 0")
                if e in block_of:
                    raise ValueError(f"matroid.blocks: action id {e} appears in two blocks")
                block_of[e] = b
        if sorted(block_of) != list(range(len(block_of))):
            missing = next(i for i in range(len(block_of) + 1) if i not in block_of)
            raise ValueError(f"matroid.blocks: action id {missing} is outside all blocks")
        object.__setattr__(self, "_block_of", tuple(block_of[e] for e in range(len(block_of))))

    @property
    def n_actions(self) -> int:
        return len(self._block_of)  # type: ignore[attr-defined]

    @cached_property
    def _block_array(self) -> np.ndarray:
        return np.array(self._block_of, dtype=np.intp)  # type: ignore[attr-defined]

    @cached_property
    def _capacity_array(self) -> np.ndarray:
        return np.array(self.capacities, dtype=np.intp)

    def is_independent(self, subset: Collection[int]) -> bool:
        block_of = self._block_of  # type: ignore[attr-defined]
        counts = [0] * len(self.blocks)
        for e in _distinct(subset):
            b = block_of[e]
            counts[b] += 1
            if counts[b] > self.capacities[b]:
                return False
        return True

    def extendable(self, subset: Collection[int]) -> np.ndarray:
        chosen = list(set(subset))
        block_of = self._block_array
        counts = np.bincount(block_of[chosen], minlength=len(self.blocks))
        if (counts > self._capacity_array).any():
            return np.zeros(self.n_actions, dtype=bool)
        mask = (counts < self._capacity_array)[block_of]
        mask[chosen] = False
        return mask

    @cached_property
    def _needs(self) -> tuple[int, ...]:
        """Per block, what a basis takes from it: min(capacity, block size)."""
        return tuple(min(cap, len(block)) for cap, block in zip(self.capacities, self.blocks))

    @cached_property
    def _rank(self) -> int:
        return sum(self._needs)

    def is_basis(self, subset: Collection[int]) -> bool:
        block_of = self._block_of  # type: ignore[attr-defined]
        counts = [0] * len(self.blocks)
        subset = _distinct(subset)
        for e in subset:
            b = block_of[e]
            counts[b] += 1
            if counts[b] > self.capacities[b]:
                return True  # dependent: no element extends it
        if len(subset) < self._rank:
            # The block counts sum to len(subset), so some block is short.
            return False
        return all(count >= need for count, need in zip(counts, self._needs))


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
        if not isinstance(rank, int) or rank < 1:
            raise ValueError("scenario config: field 'matroid.rank' must be a positive integer")
        return UniformMatroid(n_actions=n_actions, rank=rank)
    if kind == "partition":
        raw_blocks = spec.get("blocks")
        if not isinstance(raw_blocks, list):
            raise ValueError("scenario config: field 'matroid.blocks' must be a list of id lists")
        blocks = []
        for block in raw_blocks:
            if not isinstance(block, list) or any(not isinstance(e, int) for e in block):
                raise ValueError("scenario config: field 'matroid.blocks' must contain integer ids")
            blocks.append(tuple(block))
        if "capacities" in spec:
            caps = spec["capacities"]
            if not isinstance(caps, list) or len(caps) != len(blocks):
                raise ValueError("scenario config: field 'matroid.capacities' must list one capacity per block")
            capacities = tuple(caps)
        else:
            z = spec.get("capacity")
            if not isinstance(z, int):
                raise ValueError("scenario config: field 'matroid.capacity' must be an integer")
            capacities = (z,) * len(blocks)
        try:
            matroid = PartitionMatroid(tuple(blocks), capacities)
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


def check_matroid_axioms(matroid, n_actions: int | None = None) -> bool:
    """Exhaustively verify the three matroid axioms over every subset of the
    ground set: the empty set is independent, independence is closed under
    taking subsets, and any smaller independent set can be augmented from a
    larger one. Accepts anything with an ``is_independent`` method.

    Enumeration is exponential; ground sets above AXIOM_CHECK_CAP are refused.
    """
    n = matroid.n_actions if n_actions is None else n_actions
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
