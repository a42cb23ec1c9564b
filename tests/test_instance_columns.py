"""``Instance.from_columns`` against the per-item path, and the column views.

``from_columns`` checks its columns a whole array at a time and builds
the items without re-running ``Item.__post_init__``.  These tests pin
that it is only a faster way to the same instance: valid columns give
items equal to ``Instance([Item(...), ...])`` field by field and type by
type, and invalid columns raise the per-item path's exception with its
message.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InvalidInstanceError
from repro.core.instance import Instance
from repro.core.items import Item


def per_item(arrivals, departures, sizes, capacity=None, name=""):
    """The reference: one ``Item`` per row, then ``Instance``."""
    items = [
        Item(a, e, s, uid=j) for j, (a, e, s) in enumerate(zip(arrivals, departures, sizes))
    ]
    return Instance(items, capacity=capacity, name=name)


def random_columns(d, n=60, seed=0):
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.integers(0, 20, size=n)).astype(np.float64)  # with ties
    departures = arrivals + rng.uniform(0.5, 5.0, size=n)
    sizes = rng.uniform(0.0, 10.0, size=(n, d))
    return arrivals, departures, sizes


@pytest.mark.parametrize("d", [1, 2, 5])
def test_valid_columns_match_the_per_item_path(d):
    arrivals, departures, sizes = random_columns(d, seed=d)
    fast = Instance.from_columns(arrivals, departures, sizes, capacity=10.0, name="cols")
    slow = per_item(arrivals.tolist(), departures.tolist(), sizes, capacity=10.0, name="cols")
    assert fast.name == slow.name
    assert fast.capacity.tobytes() == slow.capacity.tobytes()
    assert len(fast.items) == len(slow.items)
    for x, y in zip(fast.items, slow.items):
        assert x.uid == y.uid and type(x.uid) is int
        assert type(x.arrival) is float and type(y.arrival) is float
        assert type(x.departure) is float and type(y.departure) is float
        assert (x.arrival, x.departure) == (y.arrival, y.departure)
        assert x.size.tobytes() == y.size.tobytes()
        assert x.size.dtype == y.size.dtype and x.size.shape == y.size.shape
        assert x.size.flags.writeable is y.size.flags.writeable is False
        assert hash(x) == hash(y) and x == y
    for column in ("size_matrix", "arrival_times", "departure_times"):
        assert getattr(fast, column).tobytes() == getattr(slow, column).tobytes()


def test_from_columns_copies_its_input():
    arrivals, departures, sizes = random_columns(2)
    inst = Instance.from_columns(arrivals, departures, sizes, capacity=10.0)
    assert sizes.flags.writeable and arrivals.flags.writeable
    sizes[0, 0] = 9.5
    arrivals[0] = -1.0
    assert inst.items[0].size[0] != 9.5 and inst.arrival_times[0] == 0.0


def test_one_dimensional_sizes_read_as_one_scalar_per_item():
    # as in the per-item path, where Item promotes a scalar to a 1-D size
    fast = Instance.from_columns([0.0, 1.0], [2.0, 3.0], np.array([0.5, 0.25]))
    slow = per_item([0.0, 1.0], [2.0, 3.0], np.array([0.5, 0.25]))
    assert fast.d == slow.d == 1
    assert fast.size_matrix.tobytes() == slow.size_matrix.tobytes()
    assert list(fast.items) == list(slow.items)


def _valid():
    return [0.0, 1.0, 1.0, 2.0], [1.0, 2.5, 3.0, 4.0], [[0.5, 0.1], [0.2, 0.3], [0.9, 0.0], [0.4, 0.4]]


def _with(column, j, value, *, k=None):
    cols = [list(c) for c in _valid()]
    if column == 2:
        cols[2] = [list(r) for r in cols[2]]
        cols[2][j][k] = value
    else:
        cols[column][j] = value
    return cols


INVALID = {
    "nan arrival": _with(0, 2, float("nan")),
    "inf arrival": _with(0, 3, float("inf")),
    "negative arrival": _with(0, 0, -1.0),
    "departure equals arrival": _with(1, 1, 1.0),
    "departure before arrival": _with(1, 2, 0.5),
    "inf departure": _with(1, 3, float("inf")),
    "nan size": _with(2, 1, float("nan"), k=1),
    "inf size": _with(2, 2, float("inf"), k=0),
    "negative size": _with(2, 3, -0.25, k=1),
    "row above capacity": _with(2, 2, 1.5, k=1),
    "unsorted arrivals": _with(0, 1, 1.5),
    "zero rows": [[], [], []],
    "negative 1-D sizes": [[0.0, 1.0], [1.0, 2.0], [0.5, -0.5]],
    "empty size rows": [[0.0, 1.0], [1.0, 2.0], np.zeros((2, 0))],
    "2-D size rows": [[0.0, 1.0], [1.0, 2.0], np.full((2, 2, 2), 0.1)],
    "ragged size rows": [[0.0, 1.0], [1.0, 2.0], [[0.1, 0.2], [0.3]]],
}


def _outcome(build):
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_columns_raise_what_the_per_item_path_raises(case):
    arrivals, departures, sizes = INVALID[case]
    expected = _outcome(lambda: per_item(arrivals, departures, sizes))
    assert _outcome(lambda: Instance.from_columns(arrivals, departures, sizes)) == expected


@pytest.mark.parametrize("capacity", [[1.0, 1.0, 1.0], 0.0, [1.0, -2.0]])
def test_invalid_capacity_raises_what_the_per_item_path_raises(capacity):
    arrivals, departures, sizes = _valid()
    expected = _outcome(lambda: per_item(arrivals, departures, sizes, capacity=capacity))
    got = _outcome(lambda: Instance.from_columns(arrivals, departures, sizes, capacity=capacity))
    assert got == expected


def test_columns_of_different_lengths_are_rejected():
    arrivals, departures, sizes = _valid()
    with pytest.raises(InvalidInstanceError, match="columns differ in length"):
        Instance.from_columns(arrivals, departures[:-1], sizes)
    with pytest.raises(InvalidInstanceError, match="columns differ in length"):
        Instance.from_columns(arrivals, departures, sizes[:-1])


def test_hand_built_instance_columns_are_the_stacked_item_fields():
    items = [
        Item(0, 2, np.array([0.5, 0.25]), uid=7),
        Item(1.5, 4.0, np.array([0.125, 1.0]), uid=3),
        Item(1.5, 2.5, np.array([0.0, 0.75]), uid=0),
    ]
    inst = Instance(items)
    expected = {
        "size_matrix": np.stack([it.size for it in items]),
        "arrival_times": np.array([it.arrival for it in items], dtype=np.float64),
        "departure_times": np.array([it.departure for it in items], dtype=np.float64),
    }
    for column, want in expected.items():
        got = getattr(inst, column)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0
        assert getattr(inst, column) is got  # cached


# ----------------------------------------------------------------------
# pickling keeps the instance immutable
# ----------------------------------------------------------------------
def _read_only_arrays(inst):
    arrays = [it.size for it in inst.items]
    arrays += [inst.capacity, inst.size_matrix, inst.arrival_times, inst.departure_times]
    return arrays


def _round_trips(inst):
    import copy
    import pickle

    return [
        pickle.loads(pickle.dumps(inst)),
        pickle.loads(pickle.dumps(inst, protocol=2)),
        copy.deepcopy(inst),
    ]


def _sampled():
    from repro.workloads.uniform import UniformWorkload

    return UniformWorkload(d=3, n=40, mu=5).sample(np.random.default_rng(4))


def _hand_built():
    return per_item([0, 1.5, 1.5], [2, 4.0, 3.25], [[0.2, 0.5], [0.7, 0.1], [0.3, 0.3]],
                    capacity=[1.0, 2.0], name="hand")


@pytest.mark.parametrize("build", [_sampled, _hand_built], ids=["sampled", "hand-built"])
@pytest.mark.parametrize("columns_first", [False, True], ids=["lazy", "cached"])
def test_pickle_round_trip_keeps_arrays_read_only(build, columns_first):
    inst = build()
    if columns_first:  # cached columns travel in the pickle too
        _read_only_arrays(inst)
        inst.dimension_maxima
    for clone in _round_trips(inst):
        assert clone.to_dict() == inst.to_dict()
        assert clone.items == inst.items
        for it, orig in zip(clone.items, inst.items):
            assert (type(it.arrival), type(it.departure), type(it.uid)) == (
                type(orig.arrival), type(orig.departure), type(orig.uid)
            )
            assert it.size.dtype == orig.size.dtype and it.size.shape == orig.size.shape
        for arr in _read_only_arrays(clone) + [clone.dimension_maxima]:
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            clone.items[0].size[0] = 9.0
        with pytest.raises(ValueError):
            clone.size_matrix[0, 0] = 9.0
        assert np.array_equal(clone.size_matrix, inst.size_matrix)
        assert np.array_equal(clone.arrival_times, inst.arrival_times)
        assert np.array_equal(clone.departure_times, inst.departure_times)


def test_unpickling_an_item_does_not_revalidate_it(monkeypatch):
    import pickle

    from repro.core import items as items_mod

    blob = pickle.dumps(Item(0.5, 2.0, [0.25, 0.5], uid=7))

    def refuse(*args, **kwargs):
        raise AssertionError("Item.__post_init__ ran on unpickle")

    monkeypatch.setattr(items_mod.Item, "__post_init__", refuse)
    clone = pickle.loads(blob)
    assert (clone.arrival, clone.departure, clone.uid) == (0.5, 2.0, 7)
    assert not clone.size.flags.writeable
