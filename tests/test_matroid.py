"""Independence oracles and the exhaustive axiom checker."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from robust_select import PartitionMatroid, UniformMatroid, check_matroid_axioms
from robust_select.matroid import AXIOM_CHECK_CAP, Matroid, ground_ids, is_int, matroid_from_dict, matroid_to_dict


@pytest.fixture
def two_blocks():
    return PartitionMatroid(((0,), (1, 2)), (1, 1))


def test_partition_independence(two_blocks):
    assert two_blocks.is_independent({0, 1})
    assert not two_blocks.is_independent({1, 2})
    assert two_blocks.is_independent(set())


def test_uniform_independence():
    m = UniformMatroid(3, 1)
    assert m.is_independent(set())
    assert m.is_independent({2})
    assert not m.is_independent({0, 1})


def test_can_extend():
    m = UniformMatroid(3, 1)
    assert m.can_extend(set(), 0)
    assert not m.can_extend({0}, 1)
    # never a self-extension
    assert not m.can_extend({0}, 0)


def test_can_extend_partition(two_blocks):
    assert not two_blocks.can_extend({1}, 2)
    assert two_blocks.can_extend({1}, 0)


def basis_by_definition(matroid, subset):
    """No element outside the set ``subset`` names passes ``can_extend``."""
    named = frozenset(subset)
    return not any(
        matroid.can_extend(named, e) for e in range(matroid.n_actions) if e not in named
    )


def extendable_by_definition(matroid, subset):
    """The mask of a feasibility state of ``subset``, by its definition:
    entry ``e`` is ``can_extend(subset, e)``."""
    return [matroid.can_extend(subset, e) for e in range(matroid.n_actions)]


def grown_state(matroid, subset):
    """A fresh feasibility state grown by every element of ``subset`` that
    its mask admits, in ascending order, and the set it then holds."""
    state, chosen = matroid.feasibility(), set()
    for e in sorted(set(subset)):
        if state.mask[e]:
            state.add(e)
            chosen.add(e)
    return state, chosen


def test_is_basis():
    assert basis_by_definition(UniformMatroid(3, 1), {2})
    assert not basis_by_definition(UniformMatroid(3, 2), {2})


def test_is_basis_partition(two_blocks):
    assert not basis_by_definition(two_blocks, {0})
    assert basis_by_definition(two_blocks, {0, 1})
    assert basis_by_definition(two_blocks, {0, 2})
    m = PartitionMatroid(((0, 1), (2, 3), (4, 5)), (1, 1, 1))
    assert not basis_by_definition(m, {0, 2})
    assert basis_by_definition(m, {0, 2, 4})


def test_is_basis_empty_ground_set():
    """On an empty ground set the empty state holds a basis: its mask is
    empty."""
    for m in (UniformMatroid(0, 1), PartitionMatroid((), ())):
        assert m.feasibility().mask.shape == (0,)
        assert basis_by_definition(m, set())


def test_rank_capped_by_ground_set():
    # rank above the ground set size: the whole set is the basis
    m = UniformMatroid(2, 5)
    assert basis_by_definition(m, {0, 1})
    assert not basis_by_definition(m, {0})


def test_axioms_uniform():
    assert check_matroid_axioms(UniformMatroid(4, 2))


def test_axioms_partition(two_blocks):
    assert check_matroid_axioms(two_blocks)


class _CorruptFamily:
    """{0,1} independent but {0} not: breaks downward closure."""

    n_actions = 2

    def is_independent(self, subset):
        return frozenset(subset) in (frozenset(), frozenset({1}), frozenset({0, 1}))


class _NoExchangeFamily:
    """{0,1} and {2} independent, but {2} cannot be augmented from {0,1}:
    downward-closed yet missing the exchange property."""

    n_actions = 3

    def is_independent(self, subset):
        s = frozenset(subset)
        return s <= frozenset({0, 1}) or s == frozenset({2})


def test_axioms_reject_corrupt_family():
    assert not check_matroid_axioms(_CorruptFamily())


def test_axioms_reject_missing_exchange():
    assert not check_matroid_axioms(_NoExchangeFamily())


def test_axioms_reject_missing_empty_set():
    class NoEmpty:
        n_actions = 1

        def is_independent(self, subset):
            return len(subset) == 1

    assert not check_matroid_axioms(NoEmpty())


def test_axiom_cap_refused():
    with pytest.raises(ValueError, match="<= 12"):
        check_matroid_axioms(UniformMatroid(AXIOM_CHECK_CAP + 1, 2))


def test_validation_errors():
    with pytest.raises(ValueError, match="positive integer"):
        UniformMatroid(3, 0)
    for n_actions in (True, 2.5, "3", -1):
        with pytest.raises(ValueError, match="matroid.n_actions"):
            UniformMatroid(n_actions, 1)
    with pytest.raises(ValueError, match="one capacity per block"):
        PartitionMatroid(((0,),), (1, 1))
    with pytest.raises(ValueError, match=">= 0"):
        PartitionMatroid(((0,),), (-1,))
    with pytest.raises(ValueError, match="matroid.capacity"):
        PartitionMatroid(((0,),), (2**63,))  # past np.intp
    with pytest.raises(ValueError, match="two blocks"):
        PartitionMatroid(((0,), (0,)), (1, 1))
    with pytest.raises(ValueError, match="outside all blocks"):
        PartitionMatroid(((0,), (2,)), (1, 1))
    with pytest.raises(ValueError, match="positive integer"):
        UniformMatroid(2, True)
    with pytest.raises(ValueError, match="capacity"):
        PartitionMatroid(((0,),), (True,))
    with pytest.raises(ValueError, match="action ids"):
        PartitionMatroid(((False,),), (1,))


_INTP_MAX = int(np.iinfo(np.intp).max)


def loop_block_of(blocks, capacities):
    """``PartitionMatroid``'s validation as it was before the set-level
    check, kept verbatim as the reference: one capacity and one id at a
    time. Returns the block of each id, or raises ValueError."""
    if len(blocks) != len(capacities):
        raise ValueError("matroid: one capacity per block is required")
    for cap in capacities:
        # The capacities are held as np.intp.
        if not is_int(cap) or not 0 <= cap <= _INTP_MAX:
            raise ValueError(f"matroid.capacity must be an integer >= 0 and <= {_INTP_MAX}, got {cap!r}")
    block_of: dict[int, int] = {}
    for b, block in enumerate(blocks):
        for e in block:
            if not is_int(e) or e < 0:
                raise ValueError("matroid.blocks: action ids must be integers >= 0")
            if e in block_of:
                raise ValueError(f"matroid.blocks: action id {e} appears in two blocks")
            block_of[e] = b
    if sorted(block_of) != list(range(len(block_of))):
        missing = next(i for i in range(len(block_of) + 1) if i not in block_of)
        raise ValueError(f"matroid.blocks: action id {missing} is outside all blocks")
    block_of_id = [block_of[e] for e in range(len(block_of))]
    return np.array(block_of_id, dtype=np.intp)


class Id(int):
    """An int subclass: ``is_int`` accepts it as an id or a capacity."""


# Values that are not plain ints, or are out of range, for ids and capacities.
_ODD_IDS = [True, False, 1.0, 0.0, np.int64(1), np.intp(0), Id(0), Id(2), -1, -3, 2**63, 2**64]
_ODD_CAPACITIES = [True, False, -1, 1.0, np.int64(1), Id(1), _INTP_MAX, _INTP_MAX + 1, 2**64]


@st.composite
def partition_specs(draw):
    """A partition of 0..M-1 into blocks with capacities, valid or not: then
    up to three faults, each a duplicate, a gap, an id or a capacity swapped
    for an odd value, or a capacity too many or too few."""
    n = draw(st.integers(0, 8))
    n_blocks = draw(st.integers(0 if n == 0 else 1, 4))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=max(0, n_blocks - 1), max_size=max(0, n_blocks - 1))))
    blocks = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])][:n_blocks]
    capacities = [draw(st.integers(0, 3)) for _ in blocks]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["id", "odd id", "drop", "add", "capacity", "count"]))
        ids = [(b, i) for b, block in enumerate(blocks) for i in range(len(block))]
        if fault in ("id", "odd id", "drop") and ids:
            b, i = draw(st.sampled_from(ids))
            if fault == "drop":
                del blocks[b][i]
            else:
                blocks[b][i] = draw(st.integers(-2, n + 1) if fault == "id" else st.sampled_from(_ODD_IDS))
        elif fault == "add" and blocks:
            draw(st.sampled_from(blocks)).append(draw(st.integers(-1, n + 1) | st.sampled_from(_ODD_IDS)))
        elif fault == "capacity" and capacities:
            capacities[draw(st.integers(0, len(capacities) - 1))] = draw(st.sampled_from(_ODD_CAPACITIES))
        elif fault == "count":
            if capacities and draw(st.booleans()):
                capacities.pop()
            else:
                capacities.append(draw(st.integers(0, 3)))
    as_blocks = draw(st.sampled_from([tuple, list]))
    return tuple(as_blocks(block) for block in blocks), tuple(capacities)


def _outcome(build):
    try:
        return build()
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@given(partition_specs())
@example((((0,), (0,)), (1, 1)))  # a duplicate
@example((((0,), (2,)), (1, 1)))  # a gap
@example((((-1, 0),), (1,)))  # a negative id
@example((((True, 0),), (1,)))  # a bool id
@example((((1.0, 0),), (1,)))  # a float id
@example((((np.int64(0),),), (1,)))  # a numpy integer id
@example((((Id(1), Id(0)),), (Id(2),)))  # int subclasses, which are accepted
@example((((0,),), (True,)))  # a bool capacity
@example((((0,),), (-1,)))  # a negative capacity
@example((((0,),), (_INTP_MAX + 1,)))  # a capacity above np.intp
@example((((0,),), (_INTP_MAX,)))
@example((((0,),), (1, 1)))  # one capacity too many
@example((((1,), (2**64,)), (-1, 1)))  # a bad capacity before a bad id
@example(((), ()))
@example((((-1,), 5), (1, 1)))  # a bad id before a block that is not iterable
@example((((0,), 5), (1, 1)))  # a block that is not iterable: TypeError
def test_partition_validation_matches_the_id_loop(spec):
    """The set-level check accepts exactly the specs the one-id-at-a-time
    loop accepts, with the same block of each id (values and dtype), and
    refuses every other spec with the loop's error and message for its
    first fault."""
    blocks, capacities = spec
    expected = _outcome(lambda: loop_block_of(blocks, capacities))
    got = _outcome(lambda: PartitionMatroid(blocks, capacities)._block_of)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.intp and got.flags.c_contiguous
        assert got.tolist() == expected.tolist()


uniform_matroids = st.integers(1, 8).flatmap(
    lambda n: st.integers(1, n).map(lambda r: UniformMatroid(n, r))
)


@st.composite
def partition_matroids(draw):
    n = draw(st.integers(1, 8))
    n_blocks = draw(st.integers(1, min(4, n)))
    assignment = [draw(st.integers(0, n_blocks - 1)) for _ in range(n)]
    blocks = tuple(
        tuple(j for j in range(n) if assignment[j] == b) for b in range(n_blocks)
    )
    capacities = tuple(draw(st.integers(0, 3)) for _ in range(n_blocks))
    return PartitionMatroid(blocks, capacities)


# The random matroids plus the edge cases: empty ground sets, and a block of
# capacity 0.
any_matroids = st.one_of(
    uniform_matroids,
    partition_matroids(),
    st.just(UniformMatroid(0, 1)),
    st.just(PartitionMatroid((), ())),
    st.just(PartitionMatroid(((0, 1), (2,)), (0, 1))),
)


@given(st.one_of(uniform_matroids, partition_matroids()))
def test_axioms_hold_for_real_matroids(matroid):
    assert check_matroid_axioms(matroid)


@given(st.one_of(uniform_matroids, partition_matroids()), st.data())
def test_can_extend_matches_definition(matroid, data):
    n = matroid.n_actions
    subset = frozenset(
        j for j in range(n) if data.draw(st.booleans(), label=f"in_{j}")
    )
    if not matroid.is_independent(subset):
        return
    for e in range(n):
        if e in subset:
            assert not matroid.can_extend(subset, e)
        else:
            assert matroid.can_extend(subset, e) == matroid.is_independent(subset | {e})


@given(any_matroids, st.data())
def test_extendable_matches_can_extend(matroid, data):
    """A state grown by a drawn set's admissible elements holds the mask
    ``can_extend`` defines for the set it then holds."""
    n = matroid.n_actions
    subset = {j for j in range(n) if data.draw(st.booleans(), label=f"in_{j}")}
    state, chosen = grown_state(matroid, subset)
    assert state.mask.dtype == bool and state.mask.shape == (n,)
    assert state.mask.tolist() == extendable_by_definition(matroid, chosen)


@given(any_matroids, st.data())
def test_is_basis_matches_the_definition(matroid, data):
    """A grown state's mask is empty exactly when its set is a basis by the
    definition: that is how the greedies see a basis."""
    n = matroid.n_actions
    subset = {j for j in range(n) if data.draw(st.booleans(), label=f"in_{j}")}
    state, chosen = grown_state(matroid, subset)
    assert (not state.mask.any()) == basis_by_definition(matroid, chosen)
    assert basis_by_definition(matroid, sorted(chosen)) == basis_by_definition(matroid, chosen)


@given(any_matroids, st.data())
def test_a_list_answers_for_the_set_it_names(matroid, data):
    """Independence and extension queries on a list, repeats included,
    answer for the set the list names."""
    n = matroid.n_actions
    listed = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
    named = frozenset(listed)
    assert matroid.is_independent(listed) == matroid.is_independent(named)
    assert extendable_by_definition(matroid, listed) == extendable_by_definition(matroid, named)


class _AtMostOneLow(Matroid):
    """Defines only independence: at most one of ids 0 and 1, two in all."""

    n_actions = 4

    def is_independent(self, subset):
        return len(subset) <= 2 and len(set(subset) & {0, 1}) <= 1


def test_extendable_default_uses_is_independent():
    m = _AtMostOneLow()
    assert m.feasibility().mask.tolist() == [True, True, True, True]
    for grown, mask in (([0], [False, False, True, True]), ([2], [True, True, False, True]), ([0, 3], [False] * 4)):
        state = m.feasibility()
        for e in grown:
            state.add(e)
        assert state.mask.tolist() == mask


def test_is_basis_default_uses_is_independent():
    m = _AtMostOneLow()
    assert not basis_by_definition(m, {0})
    assert basis_by_definition(m, {0, 3})


_UNIFORM = UniformMatroid(3, 1)
_PARTITION = PartitionMatroid(((0, 1), (2,)), (1, 1))


# Each query by the name a test id gives it: a method of the matroid, or
# the definition that replaced a deleted one.
_QUERIES = {
    "is_independent": lambda matroid, *args: matroid.is_independent(*args),
    "can_extend": lambda matroid, *args: matroid.can_extend(*args),
    "is_basis": basis_by_definition,
    "extendable": extendable_by_definition,
}


@pytest.mark.parametrize(
    "matroid, query, args",
    [
        (_UNIFORM, "is_independent", ({7},)),
        (_UNIFORM, "is_basis", ({7},)),
        (_UNIFORM, "can_extend", (set(), 9)),
        (_UNIFORM, "extendable", ([0, -1],)),
        (_PARTITION, "is_independent", ({-1, 2},)),
        (_PARTITION, "is_independent", ({5},)),
        (_PARTITION, "is_basis", ([3],)),
        (_PARTITION, "can_extend", ({0}, -1)),
    ],
    ids=[
        "uniform-independent-7",
        "uniform-basis-7",
        "uniform-extend-9",
        "uniform-extendable-neg1",
        "partition-independent-neg1",
        "partition-independent-5",
        "partition-basis-3",
        "partition-extend-neg1",
    ],
)
def test_queries_refuse_ids_outside_the_ground_set(matroid, query, args):
    with pytest.raises(IndexError, match=r"action id -?\d+ outside ground set \[0, 3\)"):
        _QUERIES[query](matroid, *args)


@pytest.mark.parametrize("matroid", [_UNIFORM, _PARTITION], ids=["uniform", "partition"])
@pytest.mark.parametrize("query", ["is_independent", "is_basis", "extendable"])
@pytest.mark.parametrize("ids", [[True, 2], {False, 2}], ids=["list", "set"])
def test_queries_refuse_a_bool_among_ids(matroid, query, ids):
    """numpy reads True as 1 in a list of ints; the queries refuse it."""
    with pytest.raises(IndexError, match="got bool"):
        _QUERIES[query](matroid, ids)


class _Forwarding(Matroid):
    """Defines only independence, forwarded to a built-in matroid, so every
    other query takes the generic path."""

    def __init__(self, inner):
        self.inner = inner
        self.n_actions = inner.n_actions

    def is_independent(self, subset):
        return self.inner.is_independent(subset)


def _refused(state, element, error):
    """``state.add(element)`` raises ``error`` and leaves the state as it was."""
    before = state.mask.tolist()
    with pytest.raises(error):
        state.add(element)
    assert state.mask.tolist() == before


@given(st.one_of(any_matroids, any_matroids.map(_Forwarding)), st.data())
def test_feasibility_state_follows_its_set(matroid, data):
    """Along a drawn insertion order from empty, the state's mask is the
    definition's answer after every ``add``; a second state grown the same
    way hands out a mask that no later ``add`` to the first touches; and
    ``add`` refuses members, infeasible elements and ids outside the ground
    set, changing nothing."""
    n = matroid.n_actions
    chosen = set()
    state = matroid.feasibility()
    handed_out = []
    while True:
        expected = extendable_by_definition(matroid, chosen)
        assert state.mask.dtype == bool and state.mask.shape == (n,)
        assert state.mask.tolist() == expected
        mask = grown_state(matroid, chosen)[0].mask
        assert mask is not state.mask and mask.tolist() == expected
        handed_out.append((mask, expected))
        for bad in (-1, n, True, 0.0):
            _refused(state, bad, IndexError)
        for e in range(n):
            if not expected[e]:
                _refused(state, e, ValueError)
        allowed = [e for e in range(n) if expected[e]]
        if not allowed:
            break
        e = data.draw(st.sampled_from(allowed), label="add")
        state.add(e)
        chosen.add(e)
    for mask, expected in handed_out:
        assert mask.tolist() == expected


def _room_of(matroid, chosen):
    """``room`` by its definition: what the set can still take, in total
    (uniform) or per block (partition)."""
    if isinstance(matroid, UniformMatroid):
        return matroid.rank - len(chosen)
    return [cap - sum(e in chosen for e in block) for block, cap in zip(matroid.blocks, matroid.capacities)]


@given(any_matroids, st.data())
def test_empty_feasibility_state_matches_the_general_path(matroid, data):
    """``feasibility()`` reads the empty set's state from the rank or the
    capacities (blocks of capacity 0 included). Its mask and room are the
    definition's, and so they are after any ``add``."""
    n = matroid.n_actions
    empty = matroid.feasibility()
    assert empty.mask.dtype == bool and empty.mask.shape == (n,)
    assert empty.mask.tolist() == extendable_by_definition(matroid, ())
    assert empty.room == _room_of(matroid, set())
    allowed = np.flatnonzero(empty.mask).tolist()
    if allowed:
        e = data.draw(st.sampled_from(allowed), label="add")
        empty.add(e)
        assert empty.mask.tolist() == extendable_by_definition(matroid, {e})
        assert empty.room == _room_of(matroid, {e})


@given(any_matroids, st.data())
def test_empty_feasibility_states_are_independent(matroid, data):
    """Two empty states of one matroid share nothing: adding to one leaves
    the other, a fresh third and the matroid as they were."""
    first, second = matroid.feasibility(), matroid.feasibility()
    mask, room = second.mask.tolist(), second.room
    allowed = np.flatnonzero(first.mask).tolist()
    for _ in range(data.draw(st.integers(1, 3), label="adds")):
        if not allowed:
            break
        e = data.draw(st.sampled_from(allowed), label="add")
        first.add(e)
        allowed = np.flatnonzero(first.mask).tolist()
    third = matroid.feasibility()
    for state in (second, third):
        assert state.mask.tolist() == mask and state.room == room
    assert room == _room_of(matroid, set())


def test_feasibility_state_of_a_partition_closes_a_full_block():
    m = PartitionMatroid(((0, 1, 2), (3,), (4, 5)), (2, 0, 1))
    state = m.feasibility()
    assert state.mask.tolist() == [True, True, True, False, True, True]
    state.add(1)
    assert state.mask.tolist() == [True, False, True, False, True, True]
    state.add(2)
    assert state.mask.tolist() == [False, False, False, False, True, True]
    with pytest.raises(ValueError, match="cannot extend"):
        state.add(0)


def test_matroid_dict_round_trip(two_blocks):
    spec = matroid_to_dict(two_blocks)
    assert spec == {"type": "partition", "blocks": [[0], [1, 2]], "capacity": 1}
    assert matroid_from_dict(spec, 3) == two_blocks

    uneven = PartitionMatroid(((0,), (1, 2)), (1, 2))
    spec = matroid_to_dict(uneven)
    assert spec["capacities"] == [1, 2]
    assert matroid_from_dict(spec, 3) == uneven

    uni = UniformMatroid(3, 2)
    assert matroid_from_dict(matroid_to_dict(uni), 3) == uni


def test_matroid_dict_errors():
    with pytest.raises(ValueError, match="matroid.rank"):
        matroid_from_dict({"type": "uniform", "rank": 0}, 3)
    with pytest.raises(ValueError, match="matroid.capacity"):
        matroid_from_dict({"type": "partition", "blocks": [[0]]}, 1)
    with pytest.raises(ValueError, match="cover every action id"):
        matroid_from_dict({"type": "partition", "blocks": [[0]], "capacity": 1}, 2)
    # JSON true/false are not ids or counts.
    with pytest.raises(ValueError, match="matroid.rank"):
        matroid_from_dict({"type": "uniform", "rank": True}, 2)
    with pytest.raises(ValueError, match="matroid.capacity"):
        matroid_from_dict({"type": "partition", "blocks": [[0, 1]], "capacity": True}, 2)
    with pytest.raises(ValueError, match="matroid.capacity"):
        matroid_from_dict({"type": "partition", "blocks": [[0, 1]], "capacities": [True]}, 2)
    with pytest.raises(ValueError, match="matroid.blocks"):
        matroid_from_dict({"type": "partition", "blocks": [[False, True]], "capacity": 1}, 2)


def test_ground_ids_sees_a_bool_only_if_it_survives_to_the_check():
    """A bool that reaches ``ground_ids`` is refused, in a list or alone in
    a set; a set that also holds the id equal to it has collapsed to that
    id before the check runs, and is read as that id."""
    for ids in ([1, True], [True], {True}, {False, 2}):
        with pytest.raises(IndexError, match="got bool"):
            ground_ids(ids, 3)
    assert {1, True} == {1}
    assert ground_ids({1, True}, 3).tolist() == ground_ids({1}, 3).tolist() == [1]


def test_ground_ids_of_integer_arrays_with_no_entries_are_empty():
    """Integer input with no entries, in any shape, names no id; input of
    any other dtype is refused as before, even when it is empty."""
    for ids in (np.zeros((1, 0), int), [np.zeros(0, int)], np.zeros((2, 0), np.uint8), ()):
        got = ground_ids(ids, 3)
        assert got.dtype == np.intp and got.tolist() == []
    for ids, dtype in (([np.zeros(0)], "float64"), (np.zeros((1, 0), bool), "bool")):
        with pytest.raises(IndexError, match=f"must be integers, got {dtype}"):
            ground_ids(ids, 3)
