"""Set-function builtins, JSON loading, and the exhaustive checkers."""

import numpy as np
import pytest

from stocomb.errors import NotMonotone, NotSubmodular, SchemaError
from stocomb.rng import stream
from stocomb.setfun import (
    cardinality,
    check_monotone,
    check_submodular,
    coverage,
    from_json,
    from_table,
    random_coverage,
    table,
    weighted_rank,
)


def test_cardinality():
    f = cardinality(("a", "b"))
    assert f(frozenset()) == 0.0
    assert f(frozenset({"a", "b"})) == 2.0


def test_coverage_counts_union_weight():
    f = coverage({"a": {1, 2}, "b": {2, 3}}, {1: 1.0, 2: 0.5, 3: 2.0})
    assert f(frozenset({"a"})) == pytest.approx(1.5)
    assert f(frozenset({"a", "b"})) == pytest.approx(3.5)
    assert f(frozenset()) == 0.0


def test_weighted_rank_caps():
    f = weighted_rank({"a": 1.0, "b": 0.8}, 1.2)
    assert f(frozenset({"a"})) == pytest.approx(1.0)
    assert f(frozenset({"a", "b"})) == pytest.approx(1.2)


def test_table_round_trip():
    ground = ("a", "b")
    f = weighted_rank({"a": 1.0, "b": 1.0}, 1.0)
    values = table(f, ground)
    g = from_table(values, ground)
    for mask_set in (frozenset(), frozenset({"a"}), frozenset({"a", "b"})):
        assert g(mask_set) == f(mask_set)


def test_table_fast_path_equals_oracle_loop():
    ground = tuple(f"g{i}" for i in range(7))
    values = stream(3, "table").uniform(-1.0, 2.0, 1 << 7)
    f = from_table(values, ground)
    loop = table(lambda s: f(s), ground)  # a plain callable takes the loop
    fast = table(f, ground)
    assert fast is f.values
    assert fast.tobytes() == loop.tobytes() == values.tobytes()
    assert not fast.flags.writeable
    # Another ground order is a different mask indexing: the loop runs.
    reordered = ground[::-1]
    assert table(f, reordered).tobytes() == \
        table(lambda s: f(s), reordered).tobytes()
    assert table(f, reordered).tobytes() != fast.tobytes()


def test_from_table_size_check():
    with pytest.raises(SchemaError):
        from_table([0.0, 1.0, 1.0], ("a", "b"))


def test_checkers_accept_coverage():
    ground = tuple(f"g{i}" for i in range(5))
    f = random_coverage(ground, stream(0, "t"))
    check_monotone(f, ground)
    check_submodular(f, ground)


def test_checkers_reject_bad_functions():
    decreasing = {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}
    ground = ("a", "b")

    def f_dec(S):
        mask = ("a" in S) | (("b" in S) << 1)
        return decreasing[mask]

    with pytest.raises(NotMonotone):
        check_monotone(f_dec, ground)

    supermodular = {0: 0.0, 1: 0.0, 2: 0.0, 3: 1.0}

    def f_sup(S):
        mask = ("a" in S) | (("b" in S) << 1)
        return supermodular[mask]

    with pytest.raises(NotSubmodular):
        check_submodular(f_sup, ground)


class TestFromJson:
    def test_cardinality(self):
        f = from_json({"kind": "cardinality"}, ("a", "b"))
        assert f(frozenset({"a", "b"})) == 2.0

    def test_weighted_rank(self):
        f = from_json({"kind": "weighted_rank",
                       "weights": {"a": 1.0, "b": 1.0}, "cap": 1.0},
                      ("a", "b"))
        assert f(frozenset({"a", "b"})) == 1.0

    def test_coverage(self):
        payload = {"kind": "coverage",
                   "cover": {"a": ["u"], "b": ["u", "v"]},
                   "weights": {"u": 1.0, "v": 2.0}}
        f = from_json(payload, ("a", "b"))
        assert f(frozenset({"a"})) == 1.0
        assert f(frozenset({"b"})) == 3.0
        assert f(frozenset({"a", "b"})) == 3.0

    def test_table(self):
        f = from_json({"kind": "table", "values": [0.0, 1.0, 1.0, 1.5]},
                      ("a", "b"))
        assert f(frozenset({"a"})) == 1.0
        assert f(frozenset({"a", "b"})) == 1.5

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            from_json({"kind": "mystery"}, ("a",))

    def test_missing_fields(self):
        with pytest.raises(SchemaError):
            from_json({"kind": "weighted_rank", "weights": {"a": 1.0}}, ("a",))

    def test_table_ground_cap(self):
        ground = tuple(f"g{i}" for i in range(17))
        with pytest.raises(SchemaError):
            from_json({"kind": "table", "values": [0.0] * (1 << 17)}, ground)
