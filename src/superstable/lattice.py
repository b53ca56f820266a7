"""Enumeration of all super-stable matchings through closed rotation subsets,
the lattice's join, meet and dominance, and maximum-weight optimization."""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import chain, islice
from math import lcm
from typing import Iterator

from .instance import Instance, _reproducible
from .rotations import (
    RotationPoset,
    _eliminate,
    maximal_sequence,
    precedence_digraph,
    rotations_of,
)
from .stability import _blocking, _indexed


def matching_of(first, rotations, subset) -> frozenset:
    """Eliminate the rotations at the chosen positions from the top matching.

    Discovery order is a linear extension of precedence, so eliminating in
    ascending position works for every closed subset; the result does not
    depend on the elimination order.  Raises ValueError for a non-closed
    subset or a member that names no rotation.
    """
    return _eliminate(first, rotations, subset)


def closed_subsets(poset: RotationPoset) -> Iterator[frozenset]:
    """All down-closed rotation sets, depth-first with ascending positions."""
    preds = poset.predecessors()
    n = len(poset.rotations)

    def walk() -> Iterator[frozenset]:
        chosen: set[int] = set()
        added: list[int] = []  # the members of ``chosen`` in the order taken
        yield frozenset()
        i = 0  # next rotation to try on top of ``chosen``
        while True:
            while i < n and not preds[i] <= chosen:
                i += 1
            if i < n:
                chosen.add(i)
                added.append(i)
                yield frozenset(chosen)
            elif added:
                i = added.pop()
                chosen.discard(i)
            else:
                return
            i += 1

    return walk()


def build_poset(inst: Instance):
    """(man-optimal matching, rotation poset), or None when infeasible."""
    sequence = maximal_sequence(inst)
    if not sequence:
        return None
    rotations = rotations_of(sequence)
    return sequence[0], precedence_digraph(inst, sequence[0], rotations)


def enumerate_all(inst: Instance, limit: int | None = None) -> Iterator[frozenset]:
    """Stream every super-stable matching, one per closed subset.

    Deterministic order starting at the man-optimal matching; empty stream
    when the instance is infeasible.  The first ``len(rotations) + 1``
    matchings are ``maximal_sequence``'s chain.  Each step costs what the
    rotations it applies or undoes move, plus the copy of its output.
    """
    built = build_poset(inst)
    if built is None:
        return
    yield from islice(_matchings(inst, *built), limit)


def _matchings(inst: Instance, first, poset: RotationPoset) -> Iterator[frozenset]:
    """The matching of each closed subset, in ``closed_subsets`` order.

    Each step of the walk keeps a prefix of the last subset's members,
    which it took in ascending position, and takes one rotation above the
    kept ones: its matching undoes the dropped rotations, latest first, and
    applies the taken one (Gusfield & Irving 1989), instead of a replay
    from ``first``.  The first descent takes every rotation in discovery
    order, so it walks the chain the poset was read off.
    """
    rotations = poset.rotations
    current = set(first)
    applied: list[int] = []  # the last subset's members, ascending
    with _reproducible(inst):
        for subset in closed_subsets(poset):
            if subset:
                # the step kept all of this subset but its largest member
                while len(applied) >= len(subset):
                    rot = rotations[applied.pop()]
                    current -= rot.added
                    current |= rot.removed
                k = max(subset)
                rot = rotations[k]
                if not rot.removed <= current:
                    raise RuntimeError(f"rotation {k} is not exposed at its turn (internal error)")
                current -= rot.removed
                current |= rot.added
                applied.append(k)
            yield frozenset(current)


def join_meet(inst: Instance, a, b) -> tuple[frozenset, frozenset]:
    """(join, meet): each man takes the better resp. worse of his two partners.

    Defined on super-stable inputs only; ties between distinct partners
    cannot occur there.  Both outputs are super-stable (Spieker 1995;
    Manlove 2002), so no woman is taken twice, by m1 from ``a`` and m2 from
    ``b``: in the join, (m2, w) would block ``a`` or (m1, w) block ``b``; in
    the meet, m1 strictly prefers ``b`` and m2 ``a``, so by opposition of
    interests w would strictly prefer m2 to m1 and m1 to m2.  Costs the two
    ``blocking_edges`` prechecks plus O(|a Δ b|): only the men whose
    partners differ choose.  The outputs are built from the inputs' own pair
    objects, and when one input dominates the other they are the two inputs
    themselves (as validated: a frozenset of pairs is kept as given).
    """
    a, b, better, worse, from_b = _choices(inst, a, b)
    if not from_b:
        return a, b
    if from_b == len(better):
        return b, a
    common = a & b
    # from an iterable: ``common.union(better)`` leaves a table twice as large
    return frozenset(chain(common, better)), frozenset(chain(common, worse))


def dominates(inst: Instance, first, second) -> bool:
    """True iff every man weakly prefers his partner in ``first`` to ``second``.

    That is, the join of the two is ``first``: no man whose partners differ
    prefers ``second``.  Both inputs must be super-stable, as for
    ``join_meet``, and the cost is the same: the two prechecks plus
    O(|first Δ second|), with no output set built.
    """
    *_, from_second = _choices(inst, first, second)
    return not from_second


def _choices(inst: Instance, a, b):
    """(a, b, better, worse, from_b): both inputs validated and prechecked as
    for ``join_meet``; for each man whose partners differ, his better pair
    in ``better`` and his worse one at the same position in ``worse``, each
    the input's own object; ``from_b`` counts the men who prefer ``b``."""
    a, b = _indexed(inst, a), _indexed(inst, b)
    for indexed in (a, b):
        if _blocking(inst, indexed):
            raise ValueError("join, meet and dominance are defined on super-stable matchings only")
    (a, mates_a, _), (b, mates_b, _) = a, b
    if [j < 0 for j in mates_a] != [j < 0 for j in mates_b]:
        raise RuntimeError("super-stable matchings must match the same men")
    in_b = {pair[0]: pair for pair in b - a}
    better, worse = [], []
    from_b = 0
    for pair in a - b:
        i = inst._midx[pair[0]]
        ranks = inst._man_rank[i]
        rank_a, rank_b = ranks[mates_a[i]], ranks[mates_b[i]]
        if rank_a == rank_b:
            raise RuntimeError("tied distinct partners contradict super-stability")
        other = in_b[pair[0]]
        if rank_a < rank_b:
            better.append(pair)
            worse.append(other)
        else:
            better.append(other)
            worse.append(pair)
            from_b += 1
    return a, b, better, worse, from_b


def max_weight(inst: Instance, weights):
    """A maximum-weight super-stable matching with its exact weight, or None.

    The weight of a matching is the sum of its edge weights (absent edges
    weigh 0).  Each rotation is valued by added-minus-removed weight and the
    best closed subset is found as a minimum-cut closure over the precedence
    digraph; among optima the inclusion-minimal subset wins, so the answer
    is deterministic.
    """
    weights = _check_weights(inst, weights)
    built = build_poset(inst)
    if built is None:
        return None
    first, poset = built

    def worth(pairs) -> Fraction:
        return sum((weights.get(e, Fraction(0)) for e in pairs), Fraction(0))

    values = [worth(rot.added) - worth(rot.removed) for rot in poset.rotations]
    best = matching_of(first, poset.rotations, _best_closure(values, poset.arcs))
    return best, worth(best)


def _check_weights(inst: Instance, weights) -> dict:
    """``weights`` as Fractions, keyed by the instance's own name pairs."""
    checked = {}
    for (m, w), value in weights.items():
        edge = inst._own_edge(m, w)
        if edge is None:
            raise ValueError(f"weight given for non-edge ({m!r}, {w!r})")
        checked[edge] = value if isinstance(value, Fraction) else Fraction(value)
    return checked


def _best_closure(values: list[Fraction], arcs) -> set[int]:
    """Inclusion-minimal down-closed subset of maximum total value.

    Project-selection reduction: positive rotations hang off the source,
    negative ones feed the sink, precedence arcs get infinite capacity; the
    source side of the canonical minimum cut, the residual reach of the
    source, is the answer.  Weights are scaled to integers so the cut is
    exact.
    """
    n = len(values)
    if n == 0:
        return set()
    denom = lcm(*(v.denominator for v in values))
    scaled = [int(v * denom) for v in values]
    infinite = sum(abs(v) for v in scaled) + 1
    source, sink = n, n + 1
    flow = _Dinic(n + 2)
    for i, v in enumerate(scaled):
        if v > 0:
            flow.add(source, i, v)
        elif v < 0:
            flow.add(i, sink, -v)
    for i, j in sorted(arcs):
        flow.add(j, i, infinite)  # picking j forces its predecessor i
    level = flow.max_flow(source, sink)
    return {i for i in range(n) if level[i] >= 0}


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]  # [to, cap, rev]

    def add(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def max_flow(self, s: int, t: int) -> list[int]:
        """Saturate every s-t path; the last levels mark s's residual reach."""
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return level
            cursor = [0] * self.n
            while self._push(s, t, level, cursor):
                pass

    def _levels(self, s: int) -> list[int]:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, _ in self.adj[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _push(self, s, t, level, cursor) -> int:
        """Push flow along one augmenting path of the level graph; 0 if none.

        Depth-first over the current arcs, kept as an explicit path so that
        long precedence chains cannot exhaust the interpreter's stack.
        """
        path: list[tuple[int, list[int]]] = []  # (tail, arc) from s onward
        u = s
        while u != t:
            arcs = self.adj[u]
            while cursor[u] < len(arcs):
                v, cap, _ = arcs[cursor[u]]
                if cap > 0 and level[v] == level[u] + 1:
                    path.append((u, arcs[cursor[u]]))
                    u = v
                    break
                cursor[u] += 1
            else:
                # dead end: retire the arc that led here
                if not path:
                    return 0
                u = path.pop()[0]
                cursor[u] += 1
        pushed = min(arc[1] for _, arc in path)
        for _, arc in path:
            arc[1] -= pushed
            self.adj[arc[0]][arc[2]][1] += pushed
        return pushed
