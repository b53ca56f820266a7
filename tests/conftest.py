import pytest

from superstable import (
    MEN,
    SUPER,
    blocking_edges,
    dominates,
    optimal_super_stable,
    parse_instance,
    reduce_for_edge,
)

I1_TEXT = """\
# strict 2x2
men: a b
women: x y
a: x y
b: y x
x: b a
y: a b
"""

I2_TEXT = """\
# one woman, tied between two men: infeasible
men: a b
women: x
a: x
b: x
x: (a b)
"""

I3_TEXT = """\
# tie on a's list, unique super-stable matching
men: a b
women: x y
a: (x y)
b: y
x: a
y: b a
"""

# lattice is a 3-chain; rotations 0 and 1 with 0 preceding 1
CHAIN3_TEXT = """\
men: a b c
women: x y z
a: x y
b: y x z
c: z x
x: c b a
y: a b
z: b c
"""


@pytest.fixture(scope="session")
def i1():
    return parse_instance(I1_TEXT)


@pytest.fixture(scope="session")
def i2():
    return parse_instance(I2_TEXT)


@pytest.fixture(scope="session")
def i3():
    return parse_instance(I3_TEXT)


@pytest.fixture(scope="session")
def chain3():
    return parse_instance(CHAIN3_TEXT)


def man_optimal_of(inst, stable):
    """Dominance maximum of an enumerated super-stable set, or None."""
    for m in stable:
        if all(dominates(inst, m, other) for other in stable):
            return m
    return None


def per_edge_optimum(inst, edge):
    """Man-optimal super-stable matching through ``edge`` by the paper's edge
    reduction, independent of the rotation poset: solve the reduced instance
    and re-attach the edge; a blocked result means no super-stable matching
    contains the edge."""
    inner = optimal_super_stable(reduce_for_edge(inst, edge), MEN)
    if inner is None:
        return None
    candidate = inner | {tuple(edge)}
    return None if blocking_edges(inst, candidate, SUPER) else candidate


def oracle_chain(inst, stable):
    """A maximal chain built only from the enumerated set, with a tie-break
    deliberately different from the production algorithm."""
    current = man_optimal_of(inst, stable)
    chain = [current]
    while True:
        below = [m for m in stable if m != current and dominates(inst, current, m)]
        if not below:
            return chain
        immediate = [
            m
            for m in below
            if not any(
                n != m and dominates(inst, current, n) and dominates(inst, n, m)
                for n in below
            )
        ]
        current = sorted(immediate, key=sorted)[-1]
        chain.append(current)
