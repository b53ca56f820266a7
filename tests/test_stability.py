import random

import pytest

from superstable import (
    Instance,
    MEN,
    STRONG,
    SUPER,
    WOMEN,
    blocking_edges,
    dominates,
    matching_to_json,
    optimal_super_stable,
    random_instance,
    validate_matching,
)
from superstable.oracle import brute_stable_set
from superstable.stability import _propose_and_delete
from conftest import (
    block_union,
    man_optimal_of,
    reference_propose_and_delete,
    swap_sides,
    transpose_pairs,
)

M0_I1 = frozenset({("a", "x"), ("b", "y")})
MZ_I1 = frozenset({("a", "y"), ("b", "x")})


def test_validate_matching(i1):
    with pytest.raises(ValueError, match="not an edge"):
        validate_matching(i1, {("a", "a")})
    with pytest.raises(ValueError, match="two pairs"):
        validate_matching(i1, {("a", "x"), ("a", "y")})
    with pytest.raises(ValueError, match="'x' appears in two pairs"):
        validate_matching(i1, {("a", "x"), ("b", "x")})


def test_blocking_examples(i1, i2, i3):
    assert blocking_edges(i2, {("a", "x")}, SUPER) == {("b", "x")}
    assert blocking_edges(i1, M0_I1, SUPER) == frozenset()
    assert blocking_edges(i3, {("a", "x"), ("b", "y")}, STRONG) == frozenset()
    with pytest.raises(ValueError, match="unknown criterion"):
        blocking_edges(i1, M0_I1, "weak")


def test_blocking_strong_vs_super(i3):
    # (a, y): a indifferent, y strictly worse -> blocks neither criterion
    m = {("a", "x"), ("b", "y")}
    assert blocking_edges(i3, m, SUPER) == frozenset()
    # both endpoints indifferent: blocks super but not strong
    from superstable import Instance

    inst = Instance(
        ["a", "b"],
        ["x", "y"],
        {"a": [["x", "y"]], "b": [["y"]], "x": [["a"]], "y": [["a", "b"]]},
    )
    m = {("a", "x"), ("b", "y")}
    assert ("a", "y") in blocking_edges(inst, m, SUPER)
    assert blocking_edges(inst, m, STRONG) == frozenset()


def test_unmatched_agents_block(i1):
    # empty matching is blocked by every edge under both criteria
    assert blocking_edges(i1, frozenset(), SUPER) == frozenset(i1.edges)
    assert blocking_edges(i1, frozenset(), STRONG) == frozenset(i1.edges)


def test_solver_examples(i1, i2, i3):
    assert optimal_super_stable(i1, MEN) == M0_I1
    # the proposals leave x free after she held both men: the final
    # blocking check (Irving's NONE rule) is what returns None here
    assert optimal_super_stable(i2, MEN) is None
    assert optimal_super_stable(i3, WOMEN) == {("a", "x"), ("b", "y")}
    with pytest.raises(ValueError, match="unknown side"):
        optimal_super_stable(i1, "both")


def test_dominates_examples(i1):
    assert dominates(i1, M0_I1, MZ_I1)
    assert dominates(i1, M0_I1, M0_I1)
    assert not dominates(i1, MZ_I1, M0_I1)
    with pytest.raises(ValueError, match="super-stable"):
        dominates(i1, {("a", "x")}, M0_I1)


def test_matching_json(i1):
    assert matching_to_json(i1, MZ_I1) == {"pairs": [["a", "y"], ["b", "x"]], "matched": 2}
    assert matching_to_json(i1, None) == {"pairs": None}


def sweep(count=150, base=40_000, density=0.7, ties=0.3):
    for k in range(count):
        n = 2 + (k % 5)
        yield k, random_instance(n, n, density, ties, seed=base + k)


def test_solver_equivalence_sweep():
    for k, inst in sweep():
        stable = brute_stable_set(inst, SUPER, max_edges=40)
        mine = optimal_super_stable(inst, MEN)
        if not stable:
            assert mine is None, k
        else:
            assert mine == man_optimal_of(inst, stable), k
            assert blocking_edges(inst, mine, SUPER) == frozenset()


def test_side_symmetry_sweep():
    # the woman side proposes on the instance itself; solving the rebuilt
    # swapped instance for the men is the independent route
    pool = list(sweep(60))
    for k in range(24):
        n = 30 + 10 * (k % 6)
        ties = (0.0, 0.02, 0.1)[k % 3]
        pool.append((100 + k, random_instance(n, n, 0.5, ties, seed=43_000 + k)))
    for k, inst in pool:
        woman_side = optimal_super_stable(inst, WOMEN)
        swapped = optimal_super_stable(swap_sides(inst), MEN)
        if woman_side is None:
            assert swapped is None, k
        else:
            assert woman_side == transpose_pairs(swapped), k


def test_matched_set_and_tied_partner_sweep():
    seen = 0
    pool = list(sweep(120, base=41_000))
    # strict complete instances are far more likely to carry several matchings
    pool += [(200 + k, random_instance(5, 5, 1.0, 0.0, seed=41_500 + k)) for k in range(40)]
    for k, inst in pool:
        stable = brute_stable_set(inst, SUPER, max_edges=40)
        if len(stable) < 2:
            continue
        seen += 1
        covers = [frozenset(a for pair in m for a in pair) for m in stable]
        assert all(c == covers[0] for c in covers), k
        for first in stable:
            for second in stable:
                by_man_1 = dict(first)
                by_man_2 = dict(second)
                for m, w in by_man_1.items():
                    if by_man_2[m] != w:
                        assert inst.man_rank(m, w) != inst.man_rank(m, by_man_2[m]), k
                by_w_1 = {w: m for m, w in first}
                by_w_2 = {w: m for m, w in second}
                for w, m in by_w_1.items():
                    if by_w_2[w] != m:
                        assert inst.woman_rank(w, m) != inst.woman_rank(w, by_w_2[w]), k
    assert seen > 5


def test_super_implies_strong_sweep():
    for k, inst in sweep(60, base=42_000, ties=0.6):
        mine = optimal_super_stable(inst, MEN)
        if mine is not None:
            assert blocking_edges(inst, mine, STRONG) == frozenset(), k


def _reference_optimum(inst, side):
    found = reference_propose_and_delete(inst, side)
    return None if found is None or blocking_edges(inst, found, SUPER) else found


def merged_tiers(seed, n, trials):
    """A strict random instance whose adjacent tiers are merged one pair at a
    time, each merge kept only while the reference solver still finds a
    super-stable matching.  Merges start at a side-optimal partner's tier,
    where the tie rules act.  Returns the instance and the merges kept."""
    rng = random.Random(seed)
    inst = random_instance(n, n, 0.6, 0.0, seed=seed)
    optima = [_reference_optimum(inst, side) for side in (MEN, WOMEN)]
    kept = 0
    for _ in range(trials):
        if None in optima:
            break
        pair = rng.choice(sorted(optima[0] | optima[1]))
        agent, partner = pair if rng.random() < 0.5 else pair[::-1]
        tiers = [list(t) for t in inst.prefs[agent]]
        if len(tiers) < 2:
            continue
        i = next(i for i, t in enumerate(tiers) if partner in t)
        i = min(max(i - rng.randrange(2), 0), len(tiers) - 2)
        tiers[i : i + 2] = [tiers[i] + tiers[i + 1]]
        merged = Instance(inst.men, inst.women, {**inst.prefs, agent: tiers})
        trial = [_reference_optimum(merged, side) for side in (MEN, WOMEN)]
        if None not in trial:
            inst, optima, kept = merged, trial, kept + 1
    return inst, kept


def test_solver_matches_edge_set_reference():
    # the list-position solver against the earlier per-pair deletion sets,
    # on the engagements themselves, before the blocking re-check
    random_cases = []
    for k in range(24):
        n = 20 + 130 * k // 23  # 20 to 150
        ties = (0.01, 0.05, 0.2)[k % 3]
        random_cases.append(random_instance(n, n, (0.2, 0.5)[k % 2], ties, seed=46_000 + k))
    feasible = sum(optimal_super_stable(inst) is not None for inst in random_cases)
    assert 0 < feasible < len(random_cases)
    blocks = [block_union(46_100 + 50 * k, 10 + 5 * k, (0.1, 0.3)[k % 2]) for k in range(8)]
    merged = [merged_tiers(46_200 + k, 12 + 4 * k, 40) for k in range(8)]
    assert sum(kept for _, kept in merged) > 100
    for k, inst in enumerate(random_cases + blocks + [inst for inst, _ in merged]):
        for side in (MEN, WOMEN):
            mine = _propose_and_delete(inst, side)
            assert mine == reference_propose_and_delete(inst, side), (k, side)
