import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from superstable import (
    SUPER,
    WOMEN,
    Instance,
    Rotation,
    RotationPoset,
    blocking_edges,
    build_poset,
    closed_subsets,
    dominates,
    enumerate_all,
    join_meet,
    matching_of,
    max_weight,
    optimal_super_stable,
    random_instance,
)
from superstable.lattice import _best_closure
from superstable.oracle import brute_stable_set, has_blocking_edge
from conftest import block_union, cyclic_shift, tied_halves

M0_I1 = frozenset({("a", "x"), ("b", "y")})
MZ_I1 = frozenset({("a", "y"), ("b", "x")})


def test_matching_of_examples(i1):
    first, poset = build_poset(i1)
    assert matching_of(first, poset.rotations, frozenset()) == M0_I1
    assert matching_of(first, poset.rotations, {0}) == MZ_I1
    with pytest.raises(ValueError, match="not exposed"):
        matching_of(MZ_I1, poset.rotations, {0})
    # a subset names rotations by their positions, 0 and nothing else here
    for stray in ({5}, {-1}, {0, 1}):
        with pytest.raises(ValueError, match="names no rotation"):
            matching_of(first, poset.rotations, stray)
    # nor a member that is no int, which must not reach the sort
    for stray, named in (({"a"}, "'a'"), ({0, "a"}, "'a'"), ({0.5}, r"0\.5")):
        with pytest.raises(ValueError, match=f"member {named} names no rotation"):
            matching_of(first, poset.rotations, stray)
    # nor an unhashable one, which must not reach the set of members
    for stray, named in (([[0]], r"\[0\]"), ([{0}], r"\{0\}")):
        with pytest.raises(ValueError, match=f"member {named} names no rotation"):
            matching_of(first, poset.rotations, stray)


def test_matching_of_full_subset_is_last(chain3):
    first, poset = build_poset(chain3)
    seq_last = matching_of(first, poset.rotations, {0, 1})
    assert seq_last == frozenset({("a", "y"), ("b", "z"), ("c", "x")})


def test_closed_subsets_order(chain3):
    _, poset = build_poset(chain3)
    assert list(closed_subsets(poset)) == [frozenset(), frozenset({0}), frozenset({0, 1})]


def test_enumerate_examples(i1, i2):
    assert set(enumerate_all(i1)) == {M0_I1, MZ_I1}
    assert list(enumerate_all(i2)) == []
    assert list(enumerate_all(i1, limit=1)) == [M0_I1]
    assert list(enumerate_all(i1, limit=0)) == []


def test_join_meet_examples(i1):
    join, meet = join_meet(i1, M0_I1, MZ_I1)
    assert join == M0_I1 and meet == MZ_I1
    assert join_meet(i1, MZ_I1, MZ_I1) == (MZ_I1, MZ_I1)
    with pytest.raises(ValueError, match="super-stable"):
        join_meet(i1, {("a", "x")}, MZ_I1)


def test_max_weight_examples(i1, i2):
    uniform = {e: 1 for e in i1.edges}
    matching, total = max_weight(i1, uniform)
    assert total == 2 and matching == M0_I1  # tie broken toward fewer rotations
    biased = {("a", "y"): 5, ("b", "x"): 5, ("a", "x"): 1, ("b", "y"): 1}
    matching, total = max_weight(i1, biased)
    assert (matching, total) == (MZ_I1, 10)
    assert max_weight(i2, {}) is None
    with pytest.raises(ValueError, match="non-edge"):
        max_weight(i1, {("a", "a"): 1})


def test_max_weight_rationals(i1):
    matching, total = max_weight(
        i1, {("a", "x"): Fraction(1, 3), ("b", "y"): Fraction(1, 3), ("a", "y"): Fraction(1, 2)}
    )
    assert total == Fraction(2, 3)
    assert matching == M0_I1
    # ints and "p/q" strings convert to the same Fractions
    as_fractions = {("a", "x"): Fraction(2), ("a", "y"): Fraction(3, 2), ("b", "x"): Fraction(1)}
    as_others = {("a", "x"): 2, ("a", "y"): "3/2", ("b", "x"): "1"}
    assert max_weight(i1, as_others) == max_weight(i1, as_fractions) == (MZ_I1, Fraction(5, 2))
    with pytest.raises(ValueError):
        max_weight(i1, {("a", "x"): "x"})


def test_enumeration_matches_oracle_sweep():
    for k in range(200):
        n = 2 + (k % 5)
        inst = random_instance(n, n, 0.7, 0.3, seed=50_000 + k)
        stable = brute_stable_set(inst, max_edges=40)
        got = list(enumerate_all(inst))
        assert len(got) == len(set(got)), k
        assert set(got) == set(stable), k


def blocks_of(inst):
    """The 5 x 5 blocks of a ``block_union`` instance, split by name tag."""
    for tag in sorted({m.rpartition("_")[2] for m in inst.men}, key=int):
        men = [m for m in inst.men if m.endswith(f"_{tag}")]
        women = [w for w in inst.women if w.endswith(f"_{tag}")]
        yield Instance(men, women, {a: inst.prefs[a] for a in men + women})


def test_enumeration_product_law():
    # a block union's lattice is the product of its blocks' lattices
    products = 0  # inputs with at least two factors above 1
    for k, tie_prob in enumerate((0.05, 0.1, 0.15, 0.3) * 2):
        inst = block_union(54_000 + 100 * k, 15 + 5 * (k % 2), tie_prob)
        assert any(len(tier) > 1 for tiers in inst.prefs.values() for tier in tiers), k
        counts = [len(brute_stable_set(b, max_edges=25)) for b in blocks_of(inst)]
        got = list(enumerate_all(inst))
        assert len(got) == len(set(got)) == prod(counts), (k, counts)
        for matching in random.Random(k).sample(got, min(len(got), 10)):
            assert not has_blocking_edge(inst, matching, "super"), k
        products += sum(c > 1 for c in counts) >= 2
    assert products >= 2


def test_order_isomorphism_sweep():
    for k in range(100):
        n = 2 + (k % 4)
        inst = random_instance(n, n, 0.8, 0.3, seed=51_000 + k)
        built = build_poset(inst)
        if built is None:
            continue
        first, poset = built
        subsets = list(closed_subsets(poset))
        matchings = [matching_of(first, poset.rotations, s) for s in subsets]
        for i, si in enumerate(subsets):
            for j, sj in enumerate(subsets):
                assert (si <= sj) == dominates(inst, matchings[i], matchings[j]), (k, i, j)


def test_join_meet_closure_sweep():
    for k in range(60):
        n = 4 + (k % 2)
        inst = random_instance(n, n, 1.0, 0.0, seed=52_000 + k)
        stable = brute_stable_set(inst, max_edges=40)
        if len(stable) < 2:
            continue
        universe = set(stable)
        for a in stable:
            for b in stable:
                join, meet = join_meet(inst, a, b)
                assert join in universe and meet in universe
                assert blocking_edges(inst, join, SUPER) == frozenset()
                assert blocking_edges(inst, meet, SUPER) == frozenset()
                assert dominates(inst, join, a) and dominates(inst, join, b)
                assert dominates(inst, a, meet) and dominates(inst, b, meet)


def test_max_weight_matches_oracle_sweep():
    for k in range(150):
        n = 2 + (k % 5)
        inst = random_instance(n, n, 0.7, 0.3, seed=53_000 + k)
        stable = brute_stable_set(inst, max_edges=40)
        rng = random.Random(k)
        weights = {e: Fraction(rng.randint(-10, 10)) for e in inst.edges}
        got = max_weight(inst, weights)
        if not stable:
            assert got is None, k
            continue
        best = max(sum((weights[e] for e in m), Fraction(0)) for m in stable)
        matching, total = got
        assert total == best, k
        assert matching in set(stable), k
        assert sum((weights[e] for e in matching), Fraction(0)) == best, k


def _long_chain(n):
    """A poset of n rotations in one precedence chain."""
    rotations = (Rotation(frozenset(), frozenset()),) * n
    return RotationPoset(rotations, frozenset((i, i + 1) for i in range(n - 1)))


def test_long_chain_min_cut():
    # only the last rotation pays, and it needs every other one first
    poset = _long_chain(1500)
    chosen = _best_closure([Fraction(-1)] * 1499 + [Fraction(1505)], poset.arcs)
    assert chosen == set(range(1500))


def test_cyclic_shift_rotation_chain():
    # a real chain of 299 rotations, each moving every man one woman down
    n = 300
    inst = cyclic_shift(n)
    first, poset = build_poset(inst)
    k = len(poset.rotations)
    assert k == n - 1 and poset.arcs == {(i, i + 1) for i in range(k - 1)}
    assert matching_of(first, poset.rotations, range(k)) == optimal_super_stable(inst, WOMEN)
    # only the matching after rotations 0 to 149 weighs anything
    middle = frozenset((f"m{i}", f"w{(i + n // 2) % n}") for i in range(n))
    assert max_weight(inst, dict.fromkeys(middle, 1)) == (middle, n)


def test_best_closure_prefers_the_smallest_optimum():
    # zero-valued rotations stay out unless a positive one needs them
    assert _best_closure([Fraction(0), Fraction(0), Fraction(1)], {(0, 2)}) == {0, 2}
    assert _best_closure([Fraction(-1), Fraction(1)], {(0, 1)}) == set()
    assert _best_closure([Fraction(0)] * 3, set()) == set()


def test_best_closure_matches_brute_force_on_random_dags():
    # every down-closed subset of random dense DAGs with small rational
    # values, zeros included: the cut must reach the maximum value with the
    # inclusion-minimal optimum, the intersection of all optimal closures
    rng = random.Random(2024)
    choices = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    for k in range(600):
        n = 1 + k % 12
        density = (0.3, 0.6)[k // 12 % 2]
        arcs = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density}
        values = [rng.choice(choices) for _ in range(n)]
        preds = [sum(1 << i for i, j in arcs if j == v) for v in range(n)]
        best, minimal = None, None
        for subset in range(1 << n):
            if any(subset >> v & 1 and preds[v] & ~subset for v in range(n)):
                continue
            value = sum((values[v] for v in range(n) if subset >> v & 1), Fraction(0))
            if best is None or value > best:
                best, minimal = value, subset
            elif value == best:
                minimal &= subset
        chosen = _best_closure(values, arcs)
        mask = sum(1 << v for v in chosen)
        assert not any(preds[v] & ~mask for v in chosen), k
        assert sum((values[v] for v in chosen), Fraction(0)) == best, k
        assert mask == minimal, k


def test_long_chain_closed_subsets():
    subsets = list(closed_subsets(_long_chain(1500)))
    assert len(subsets) == 1501
    assert subsets[-1] == frozenset(range(1500))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from((0.1, 0.4)).flatmap(lambda p: tied_halves(tie_prob=p)), st.randoms())
def test_join_meet_and_max_weight_property(inst, rng):
    stable = brute_stable_set(inst, max_edges=21)
    if stable:
        a, b = rng.choice(stable), rng.choice(stable)
        join, meet = join_meet(inst, a, b)
        assert join in stable and meet in stable
        assert join_meet(inst, b, a) == (join, meet)  # commutativity
        assert join_meet(inst, a, meet)[0] == a  # absorption, both ways
        assert join_meet(inst, a, join)[1] == a
        assert join_meet(inst, a, a) == (a, a)  # idempotence
        assert dominates(inst, join, a) and dominates(inst, a, meet)
    weights = {e: Fraction(rng.randint(-4, 6), rng.randint(1, 3)) for e in inst.edges}
    found = max_weight(inst, weights)
    if not stable:
        assert found is None
        return
    best, total = found

    def worth(matching):
        return sum((weights[e] for e in matching), Fraction(0))

    assert best in stable and worth(best) == total == max(map(worth, stable))
