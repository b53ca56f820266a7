import pytest

from superstable import Instance, random_instance
from superstable.oracle import brute_stable_set, enumerate_matchings, has_blocking_edge


def test_enumerate_i2(i2):
    got = list(enumerate_matchings(i2))
    assert got[0] == frozenset()
    assert set(got) == {frozenset(), frozenset({("a", "x")}), frozenset({("b", "x")})}
    assert len(got) == 3


def test_enumerate_i1_counts(i1):
    got = list(enumerate_matchings(i1))
    assert len(got) == 7
    assert len(set(got)) == 7
    sizes = sorted(len(m) for m in got)
    assert sizes == [0, 1, 1, 1, 1, 2, 2]


def test_enumerate_empty_instance():
    inst = Instance(["a"], ["x"], {})
    assert list(enumerate_matchings(inst)) == [frozenset()]


def test_guard():
    inst = random_instance(5, 5, 1.0, 0.0, seed=1)
    with pytest.raises(ValueError, match="guard"):
        list(enumerate_matchings(inst))
    assert len(list(enumerate_matchings(inst, max_edges=25))) > 0


def test_determinism(i1):
    assert list(enumerate_matchings(i1)) == list(enumerate_matchings(i1))


def test_brute_sets(i1, i2, i3):
    assert [sorted(m) for m in brute_stable_set(i1)] == [
        [("a", "y"), ("b", "x")],
        [("a", "x"), ("b", "y")],
    ]
    assert brute_stable_set(i2) == []
    assert brute_stable_set(i3) == [frozenset({("a", "x"), ("b", "y")})]


def test_strong_vs_super(i3):
    # super-stability implies strong stability on every matching
    for matching in enumerate_matchings(i3):
        if not has_blocking_edge(i3, matching, "super"):
            assert not has_blocking_edge(i3, matching, "strong")
    with pytest.raises(ValueError, match="unknown criterion"):
        has_blocking_edge(i3, frozenset(), "bogus")


def test_strong_set_can_be_larger():
    # the instance from i2 has a strongly stable matching but no super-stable one
    inst = Instance(["a", "b"], ["x"], {"a": [["x"]], "b": [["x"]], "x": [["a", "b"]]})
    assert brute_stable_set(inst, "super") == []
    assert brute_stable_set(inst, "strong") == []
    # with a strict list the unique maximum is strongly stable
    inst = Instance(["a", "b"], ["x"], {"a": [["x"]], "b": [["x"]], "x": [["a"], ["b"]]})
    assert brute_stable_set(inst, "strong") == [frozenset({("a", "x")})]
