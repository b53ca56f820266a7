"""Side duality as a scale oracle.

The instance with its sides swapped has the same super-stable matchings,
transposed, and the dual lattice.  Its poset is a second derivation of the
original one: the other side proposes in both solves, the chain walks from
the other end with its own firing order, and the labelling is its own.  So
five laws hold at any size:

- its rotations, transposed and with ``removed`` and ``added`` exchanged,
  are the original rotations;
- under that bijection the transitive closures of the arcs are reversed;
- ``enumerate_all`` gives the same matchings, transposed;
- ``max_weight`` gives the same total for the transposed weights;
- ``join_meet`` returns the original meet and join, transposed.
"""

import random
from fractions import Fraction
from itertools import islice

import pytest

from superstable import (
    Rotation,
    build_poset,
    enumerate_all,
    join_meet,
    matching_of,
    max_weight,
    random_instance,
)
from conftest import block_union, cyclic_shift, drop_union, swap_sides, transpose_pairs

# enumerations up to this size are compared in full
ENUMERATION_CAP = 7_000


def _reversed_rotation(rot):
    return Rotation(transpose_pairs(rot.added), transpose_pairs(rot.removed))


def _below(poset):
    """Per rotation position, the bitset of its strict predecessors.  Arcs run
    from lower to higher positions, so ascending position is a topological
    order."""
    below = []
    for preds in poset.predecessors():
        bits = 0
        for i in preds:
            bits |= below[i] | 1 << i
        below.append(bits)
    return below


def _pairs(below):
    """The closure's pairs (i, j), i strictly before j."""
    return {(i, j) for j, bits in enumerate(below) for i in range(j) if bits >> i & 1}


def _random_matching(first, poset, below, rng):
    """The matching of the down-closure of a random set of rotations."""
    bits = 0
    for k in range(len(poset.rotations)):
        if rng.random() < 0.5:
            bits |= below[k] | 1 << k
    subset = [k for k in range(len(poset.rotations)) if bits >> k & 1]
    return matching_of(first, poset.rotations, subset)


def check_duality(inst, seed=0):
    """Assert the five laws on ``inst``; the enumeration law only when the
    lattice has at most ``ENUMERATION_CAP`` matchings.  Returns whether the
    enumeration was compared."""
    swapped = swap_sides(inst)
    built, dual = build_poset(inst), build_poset(swapped)
    assert (built is None) == (dual is None)
    if built is None:
        return False
    (first, poset), (_, dual_poset) = built, dual

    # rotations: a bijection, read off as dual position -> original position
    position = {rot: k for k, rot in enumerate(poset.rotations)}
    image = [position.get(_reversed_rotation(rot)) for rot in dual_poset.rotations]
    assert None not in image and sorted(image) == list(range(len(poset.rotations)))

    # order: (i, j) in one closure exactly when its image is reversed in the other
    below = _below(poset)
    assert _pairs(below) == {(image[j], image[i]) for i, j in _pairs(_below(dual_poset))}

    rng = random.Random(seed)
    weights = {edge: Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for edge in inst.edges}
    _, total = max_weight(inst, weights)
    _, dual_total = max_weight(swapped, {(w, m): v for (m, w), v in weights.items()})
    assert dual_total == total

    matchings = [_random_matching(first, poset, below, rng) for _ in range(4)]
    for a, b in zip(matchings, matchings[1:] + matchings[:1]):
        join, meet = join_meet(inst, a, b)
        got = join_meet(swapped, transpose_pairs(a), transpose_pairs(b))
        assert got == (transpose_pairs(meet), transpose_pairs(join))

    listed = list(islice(enumerate_all(inst), ENUMERATION_CAP + 1))
    if len(listed) > ENUMERATION_CAP:
        return False
    dual_listed = [transpose_pairs(m) for m in enumerate_all(swapped)]
    assert len(dual_listed) == len(set(dual_listed))
    assert set(dual_listed) == set(listed)
    return True


def test_duality_on_a_seeded_corpus():
    # complete lists give the most rotations per instance; a merged pair of
    # rotations shows only where an instance has three or more
    rng = random.Random(12_000)
    compared = rotations = three = 0
    for k in range(1_500):
        n = rng.randint(4, 14)
        inst = random_instance(n, n, 1.0, rng.choice((0.0, 0.1, 0.2)), seed=12_000 + k)
        compared += check_duality(inst, seed=k)
        built = build_poset(inst)
        count = 0 if built is None else len(built[1].rotations)
        rotations += count
        three += count >= 3
    assert compared > 1_000 and rotations > 1_200 and three > 140


LARGE = {
    "blocks_50_strict": lambda: block_union(12_100, 50, 0.0),
    "blocks_200_tied": lambda: block_union(12_200, 200, 0.2),
    "blocks_1000_strict": lambda: block_union(12_300, 1_000, 0.0),
    "blocks_1000_tied": lambda: block_union(12_400, 1_000, 0.15),
    "drop_50": lambda: drop_union(),
    "drop_68_mixed": lambda: drop_union(mixed=True),
    "drop_1000": lambda: drop_union(copies=20),
    "dense_strict_200": lambda: random_instance(200, 200, 1.0, 0.0, seed=12_500),
    "sparse_strict_200": lambda: random_instance(200, 200, 0.5, 0.0, seed=12_600),
}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_duality_at_scale(name):
    # only the n = 1,000 unions have lattices too large to enumerate
    assert check_duality(LARGE[name]()) == ("1000" not in name)


@pytest.mark.slow
def test_duality_on_the_long_cyclic_shift():
    # two chains of 1,000 rotations each, walked from opposite ends; the
    # lattice is the chain itself, so it is enumerated in full
    assert check_duality(cyclic_shift(1_001))
