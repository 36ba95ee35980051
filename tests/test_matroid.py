"""Independence oracles and the exhaustive axiom checker."""

import pytest
from hypothesis import given, strategies as st

from robust_select import PartitionMatroid, UniformMatroid, check_matroid_axioms
from robust_select.matroid import AXIOM_CHECK_CAP, Matroid, ground_ids, matroid_from_dict, matroid_to_dict


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


def test_is_basis():
    assert UniformMatroid(3, 1).is_basis({2})
    assert not UniformMatroid(3, 2).is_basis({2})


def test_is_basis_partition(two_blocks):
    assert not two_blocks.is_basis({0})
    assert two_blocks.is_basis({0, 1})
    assert two_blocks.is_basis({0, 2})


def test_is_basis_empty_ground_set():
    assert UniformMatroid(0, 1).is_basis(set())
    assert PartitionMatroid((), ()).is_basis(set())


def test_rank_capped_by_ground_set():
    # rank above the ground set size: the whole set is the basis
    m = UniformMatroid(2, 5)
    assert m.is_basis({0, 1})
    assert not m.is_basis({0})


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
    with pytest.raises(ValueError, match="one capacity per block"):
        PartitionMatroid(((0,),), (1, 1))
    with pytest.raises(ValueError, match=">= 0"):
        PartitionMatroid(((0,),), (-1,))
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
    """Holds for dependent subsets too: nothing extends them."""
    n = matroid.n_actions
    subset = {j for j in range(n) if data.draw(st.booleans(), label=f"in_{j}")}
    mask = matroid.extendable(subset)
    assert mask.dtype == bool and mask.shape == (n,)
    assert mask.tolist() == [matroid.can_extend(subset, e) for e in range(n)]


def basis_by_definition(matroid, subset):
    """No element outside the set ``subset`` names passes ``can_extend``."""
    named = frozenset(subset)
    return not any(
        matroid.can_extend(named, e) for e in range(matroid.n_actions) if e not in named
    )


@given(any_matroids, st.data())
def test_is_basis_matches_the_definition(matroid, data):
    """``is_basis`` agrees with the definition written out, dependent sets
    included: nothing extends those."""
    n = matroid.n_actions
    subset = {j for j in range(n) if data.draw(st.booleans(), label=f"in_{j}")}
    expected = basis_by_definition(matroid, subset)
    assert matroid.is_basis(subset) == expected
    assert matroid.is_basis(sorted(subset)) == expected


@given(any_matroids, st.data())
def test_a_list_answers_for_the_set_it_names(matroid, data):
    """Independence and basis queries on a list, repeats included, answer
    for the set the list names, as ``can_extend`` does."""
    n = matroid.n_actions
    listed = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
    named = frozenset(listed)
    assert matroid.is_independent(listed) == matroid.is_independent(named)
    assert matroid.is_basis(listed) == basis_by_definition(matroid, named)
    assert matroid.extendable(listed).tolist() == matroid.extendable(named).tolist()


def test_partition_is_basis_of_dependent_sets():
    m = PartitionMatroid(((0, 1), (2, 3), (4, 5)), (1, 1, 1))
    assert m.is_basis({0, 1})  # dependent, though shorter than the rank
    assert not m.is_basis({0, 2})
    assert m.is_basis({0, 2, 4})


class _AtMostOneLow(Matroid):
    """Defines only independence: at most one of ids 0 and 1, two in all."""

    n_actions = 4

    def is_independent(self, subset):
        return len(subset) <= 2 and len(set(subset) & {0, 1}) <= 1


def test_extendable_default_uses_is_independent():
    m = _AtMostOneLow()
    assert m.extendable(set()).tolist() == [True, True, True, True]
    assert m.extendable({0}).tolist() == [False, False, True, True]
    assert m.extendable({2}).tolist() == [True, True, False, True]
    assert m.extendable({0, 3}).tolist() == [False, False, False, False]


def test_is_basis_default_uses_is_independent():
    m = _AtMostOneLow()
    assert not m.is_basis({0})
    assert m.is_basis({0, 3})
    assert m.is_basis({0, 1})  # dependent: nothing extends it


_UNIFORM = UniformMatroid(3, 1)
_PARTITION = PartitionMatroid(((0, 1), (2,)), (1, 1))


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
        getattr(matroid, query)(*args)


@pytest.mark.parametrize("matroid", [_UNIFORM, _PARTITION], ids=["uniform", "partition"])
@pytest.mark.parametrize("query", ["is_independent", "is_basis", "extendable", "feasibility"])
@pytest.mark.parametrize("ids", [[True, 2], {False, 2}], ids=["list", "set"])
def test_queries_refuse_a_bool_among_ids(matroid, query, ids):
    """numpy reads True as 1 in a list of ints; the queries refuse it."""
    with pytest.raises(IndexError, match="got bool"):
        getattr(matroid, query)(ids)


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
    """Along a drawn insertion order from a drawn start (dependent starts
    included), the state's mask is the definition's answer after every
    ``add``; ``extendable`` hands out fresh masks that no later ``add``
    touches; and ``add`` refuses members, infeasible elements and ids
    outside the ground set, changing nothing."""
    n = matroid.n_actions
    chosen = {j for j in range(n) if data.draw(st.booleans(), label=f"start_{j}")}
    state = matroid.feasibility(sorted(chosen))
    handed_out = []
    while True:
        expected = [matroid.can_extend(chosen, e) for e in range(n)]
        assert state.mask.dtype == bool and state.mask.shape == (n,)
        assert state.mask.tolist() == expected
        mask = matroid.extendable(chosen)
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
