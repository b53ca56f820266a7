import pytest
from hypothesis import given, settings

from superstable import (
    Instance,
    NoSuperStableMatching,
    build_poset,
    irreducible_poset,
    optimal_super_stable,
    optimal_with_edge,
    p_set,
    random_instance,
    reduce_for_edge,
    serialize_instance,
)
from superstable.oracle import brute_stable_set, has_blocking_edge
from conftest import block_union, man_optimal_of, per_edge_optimum, tied_halves

M0_I1 = frozenset({("a", "x"), ("b", "y")})
MZ_I1 = frozenset({("a", "y"), ("b", "x")})

SINGLE_EDGE = Instance(["a"], ["x"], {"a": [["x"]], "x": [["a"]]})


def test_reduce_examples(i1, i2, i3):
    red = reduce_for_edge(i1, ("a", "x"))
    assert red.men == ("b",) and red.women == ("y",)
    assert red.edges == (("b", "y"),)

    red = reduce_for_edge(i2, ("a", "x"))
    assert red.men == ("b",) and red.women == ()
    assert red.edges == ()

    red = reduce_for_edge(i3, ("b", "y"))
    assert red.men == ("a",) and red.women == ("x",)
    assert red.edges == (("a", "x"),)

    with pytest.raises(ValueError, match="not an edge"):
        reduce_for_edge(i3, ("b", "x"))


def test_reduce_keeps_tier_order():
    inst = random_instance(5, 5, 0.9, 0.5, seed=77)
    red = reduce_for_edge(inst, inst.edges[0])
    for name in red.men + red.women:
        survivors = [p for p in inst.neighbors(name) if p in set(red.neighbors(name))]
        assert list(red.neighbors(name)) == survivors


def test_optimal_with_edge_examples(i1, i2, i3):
    assert optimal_with_edge(i1, ("b", "x")) == MZ_I1
    assert optimal_with_edge(i2, ("a", "x")) is None
    assert optimal_with_edge(i3, ("a", "y")) is None
    assert optimal_with_edge(i3, ("a", "x")) == {("a", "x"), ("b", "y")}
    with pytest.raises(ValueError, match="not an edge"):
        optimal_with_edge(i3, ("b", "x"))


def test_p_set_examples(i1):
    assert p_set(i1, M0_I1) == M0_I1
    assert p_set(i1, MZ_I1) == frozenset(i1.edges)
    assert p_set(SINGLE_EDGE, {("a", "x")}) == {("a", "x")}
    with pytest.raises(ValueError, match="super-stable"):
        p_set(i1, {("a", "x")})


def test_irreducible_examples(i1, i3):
    poset = irreducible_poset(i1)
    assert [el.matching for el in poset.elements] == [M0_I1, MZ_I1]
    assert set(poset.elements[0].witnesses) == M0_I1
    assert set(poset.elements[1].witnesses) == MZ_I1
    assert poset.order == {(0, 1)}
    assert poset.covers() == [(0, 1)]

    poset = irreducible_poset(i3)
    assert len(poset.elements) == 1
    assert poset.order == frozenset()

    poset = irreducible_poset(SINGLE_EDGE)
    assert len(poset.elements) == 1 and poset.order == frozenset()

    poset = irreducible_poset(Instance(["a"], ["x"], {}))
    assert poset.elements == () and poset.order == frozenset()


def test_irreducible_requires_feasibility(i2):
    with pytest.raises(NoSuperStableMatching):
        irreducible_poset(i2)


def sweep(count, base):
    for k in range(count):
        n = 2 + (k % 4)
        yield k, random_instance(n, n, 0.75, 0.3, seed=base + k)


def test_reduction_soundness_and_completeness_sweep():
    for k, inst in sweep(120, 43_000):
        stable = brute_stable_set(inst, max_edges=40)
        for edge in inst.edges:
            reduced = reduce_for_edge(inst, edge)
            reduced_stable = set(brute_stable_set(reduced, max_edges=40))
            for m in stable:
                if edge in m:
                    assert frozenset(m - {edge}) in reduced_stable, (k, edge)
            if optimal_with_edge(inst, edge) is not None:
                for inner in reduced_stable:
                    assert not has_blocking_edge(inst, inner | {edge}, "super"), (k, edge)


def test_optimal_with_edge_minimality_sweep():
    for k, inst in sweep(120, 44_000):
        stable = brute_stable_set(inst, max_edges=40)
        for edge in inst.edges:
            containing = [m for m in stable if edge in m]
            got = optimal_with_edge(inst, edge)
            if not containing:
                assert got is None, (k, edge)
            else:
                assert got == man_optimal_of(inst, containing), (k, edge)


def downsets(order, n):
    preds = [set() for _ in range(n)]
    for i, j in order:
        preds[j].add(i)
    out = [set()]
    for element in range(n):
        out = out + [s | {element} for s in out if preds[element] <= s]
    return out


def test_downset_unions_generate_psets_sweep():
    feasible = 0
    for k, inst in sweep(100, 45_000):
        stable = brute_stable_set(inst, max_edges=40)
        if not stable:
            continue
        feasible += 1
        psets = {p_set(inst, m) for m in stable}
        for a in psets:
            for b in psets:
                assert (a | b) in psets and (a & b) in psets, k
        poset = irreducible_poset(inst)
        for i, j in poset.order:
            assert poset.elements[i].pairs < poset.elements[j].pairs
        if not any(stable):
            continue  # only the empty matching: nothing to generate
        generated = {
            frozenset().union(*(poset.elements[i].pairs for i in s))
            for s in downsets(poset.order, len(poset.elements))
            if s
        }
        assert generated == psets, k
        assert sum(1 for s in downsets(poset.order, len(poset.elements)) if s) == len(stable), k
    assert feasible > 20


def family_of(inst, optima):
    """(matching, witnesses, P-set) per distinct optimum in ``optima`` (edge ->
    matching or None), in first-witness order, and the P-set containment order."""
    witnesses = {}
    for edge, found in optima.items():
        if found is not None:
            witnesses.setdefault(found, []).append(edge)
    elements = [(m, tuple(wit), p_set(inst, m)) for m, wit in witnesses.items()]
    order = {
        (i, j)
        for i, a in enumerate(elements)
        for j, b in enumerate(elements)
        if a[2] < b[2]
    }
    return elements, order


def cyclic_shift(n):
    """Latin-square preferences: man i ranks w_i, w_i+1, ... and woman j ranks
    m_j+1, m_j+2, ... (indices mod n).  Matching k pairs m_i with w_i+k, so
    the lattice is one chain of n - 1 rotations, each moving every man."""
    men = [f"m{i}" for i in range(n)]
    women = [f"w{j}" for j in range(n)]
    prefs = {m: [[women[(i + k) % n]] for k in range(n)] for i, m in enumerate(men)}
    prefs.update({w: [[men[(j + 1 + k) % n]] for k in range(n)] for j, w in enumerate(women)})
    return Instance(men, women, prefs)


def test_poset_route_matches_per_edge_route_at_scale():
    tie_probs = (0.0, 0.05, 0.1, 0.15)
    inputs = [cyclic_shift(20)] + [
        random_instance(n, n, 1.0, tie_probs[k % 4], seed=46_000 + k)
        for k, n in enumerate((15, 16, 17, 18))
    ] + [
        block_union(46_100 + 100 * k, 15 + 5 * (k % 4), tie_probs[k // 2 % 4])
        for k in range(8)
    ]
    feasible = tied = 0
    for k, inst in enumerate(inputs):
        if optimal_super_stable(inst) is None:
            continue
        feasible += 1
        tied += any(len(tier) > 1 for tiers in inst.prefs.values() for tier in tiers)
        reference = {edge: per_edge_optimum(inst, edge) for edge in inst.edges}
        # each call builds the poset; on the 400-edge cyclic shift, m0's 20
        # edges (one in each element) keep that to a fraction of a second
        for edge in inst.edges[:20] if k == 0 else inst.edges:
            assert optimal_with_edge(inst, edge) == reference[edge], (k, edge)
        elements, order = family_of(inst, reference)
        poset = irreducible_poset(inst)
        assert [(e.matching, e.witnesses, e.pairs) for e in poset.elements] == elements, k
        assert poset.order == order, k
        if k == 0:  # the cyclic shift: a chain of 20 elements, 190 order pairs
            assert len(poset.elements) == 20 and len(order) == 190
            assert poset.covers() == [(i, i + 1) for i in range(19)]
    assert feasible >= 9 and tied >= 4


def test_irreducible_family_laws_at_scale():
    for seed in range(47_000, 47_006):
        inst = random_instance(80, 80, 0.5, 0.0, seed=seed)
        first, rotation_poset = build_poset(inst)
        poset = irreducible_poset(inst)
        assert len(poset.elements) == len(rotation_poset.rotations) + 1, seed
        for element in poset.elements:
            assert not has_blocking_edge(inst, element.matching, "super"), seed
        assert poset.elements[0].matching == first, seed
        assert all((0, j) in poset.order for j in range(1, len(poset.elements))), seed
        containment = {
            (i, j)
            for i, a in enumerate(poset.elements)
            for j, b in enumerate(poset.elements)
            if a.pairs < b.pairs
        }
        assert poset.order == containment, seed


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(tied_halves())
def test_optimal_with_edge_property(inst):
    stable = brute_stable_set(inst, max_edges=21)
    for edge in inst.edges:
        containing = [m for m in stable if edge in m]
        expected = man_optimal_of(inst, containing)
        assert optimal_with_edge(inst, edge) == expected, (edge, serialize_instance(inst))
