import json
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
    merged_tiers,
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


def test_validate_matching_keeps_a_frozenset_of_pairs(i1):
    assert validate_matching(i1, M0_I1) is M0_I1
    pairs = sorted(M0_I1)
    for given in (set(pairs), pairs, (pair for pair in pairs)):
        got = validate_matching(i1, given)
        assert type(got) is frozenset and got is not given and got == M0_I1
    # a tuple subclass or a length-2 string is rebuilt into plain pairs
    named = type("Pair", (tuple,), {})
    for member in (named(("a", "x")), "ax"):
        got = validate_matching(i1, frozenset({member, ("b", "y")}))
        assert got == M0_I1 and {type(pair) for pair in got} == {tuple}


def test_validate_matching_errors_do_not_depend_on_the_container(i1):
    # each malformed member fails the same way in a frozenset, which is
    # checked as given when it holds 2-tuples only, and in a list
    cases = (
        (("a", "x", "z"), ValueError, "too many values"),
        (("a",), ValueError, "not enough values"),
        (7, TypeError, "non-iterable int"),
        (("a", "a"), ValueError, "not an edge"),
        (("a", "y"), ValueError, "'a' appears in two pairs"),
        (("b", "x"), ValueError, "'x' appears in two pairs"),
    )
    for member, kind, text in cases:
        wrapped = frozenset({("a", "x"), member})
        caught = []
        for given in (wrapped, list(wrapped)):
            with pytest.raises(kind, match=text) as error:
                validate_matching(i1, given)
            caught.append(str(error.value))
        assert caught[0] == caught[1], member
    # with several offenders the first one named is the same too, also for
    # a frozenset that iterates in another order than its rebuilt copy
    inst = random_instance(12, 12, 0.5, 0.0, seed=4400)
    rng = random.Random(4400)
    every = [(m, w) for m in inst.men for w in inst.women]
    reordered = 0
    for _ in range(300):
        wrapped = frozenset(rng.sample(every, 8))
        reordered += list(frozenset(list(wrapped))) != list(wrapped)
        outcomes = []
        for given in (wrapped, list(wrapped)):
            try:
                outcomes.append(validate_matching(inst, given))
            except ValueError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1], sorted(wrapped)
    assert reordered


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


def _sorted_json(inst, matching):
    """``matching_to_json`` as a sort of the validated pairs by man index."""
    if matching is None:
        return {"pairs": None}
    pairs = sorted(validate_matching(inst, matching), key=lambda p: inst._midx[p[0]])
    return {"pairs": [[m, w] for m, w in pairs], "matched": len(pairs)}


def test_matching_json_matches_sorted_form(i1):
    for bad in ([("a", "x"), ("a", "y")], [("a", "q")]):
        with pytest.raises(ValueError) as err:
            matching_to_json(i1, bad)
        with pytest.raises(ValueError) as want:
            validate_matching(i1, bad)
        assert str(err.value) == str(want.value)
    rng = random.Random(4112)
    for k in range(200):
        inst = random_instance(rng.randint(1, 8), rng.randint(1, 8), 0.6, 0.3, seed=4112 + k)
        edges = list(inst.edges)
        rng.shuffle(edges)
        used, matching = set(), []
        for m, w in edges:
            if m not in used and w not in used and rng.random() < 0.7:
                used |= {m, w}
                matching.append(("".join(m), "".join(w)))
        for given in (matching, frozenset(matching), [], None):
            got = matching_to_json(inst, given)
            assert json.dumps(got) == json.dumps(_sorted_json(inst, given))


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
