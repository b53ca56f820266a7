import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from superstable import (
    MEN,
    SUPER,
    WOMEN,
    Instance,
    blocking_edges,
    build_poset,
    closed_subsets,
    dominates,
    matching_of,
    max_weight,
    maximal_sequence,
    optimal_super_stable,
    parse_instance,
    precedence_digraph,
    random_instance,
    rotations_of,
)
from superstable import rotations
from superstable.oracle import brute_stable_set, has_blocking_edge
from conftest import (
    DROP_SEEDS,
    TIER_DELETION_TEXT,
    block_union,
    cyclic_shift,
    drop_union,
    man_optimal_of,
    merged_tiers,
    oracle_chain,
    tied_halves,
    union_of,
)

M0_I1 = frozenset({("a", "x"), ("b", "y")})
MZ_I1 = frozenset({("a", "y"), ("b", "x")})


def test_sequence_examples(i1, i2, i3):
    assert maximal_sequence(i1) == [M0_I1, MZ_I1]
    assert maximal_sequence(i2) == []
    assert maximal_sequence(i3) == [frozenset({("a", "x"), ("b", "y")})]


def test_rotations_of_examples(i1):
    rots = rotations_of(maximal_sequence(i1))
    assert len(rots) == 1
    assert rots[0].removed == M0_I1 and rots[0].added == MZ_I1
    assert rotations_of([M0_I1]) == []
    with pytest.raises(ValueError, match="equal"):
        rotations_of([M0_I1, M0_I1])
    with pytest.raises(ValueError, match="matched agents"):
        rotations_of([{("a", "x")}, {("a", "y")}])


def test_rotation_replay(chain3):
    seq = maximal_sequence(chain3)
    rots = rotations_of(seq)
    current = set(seq[0])
    for rot, expected in zip(rots, seq[1:]):
        assert rot.removed <= current
        current = (current - rot.removed) | rot.added
        assert frozenset(current) == expected


def test_single_rotation_digraph(i1):
    seq = maximal_sequence(i1)
    poset = precedence_digraph(i1, seq[0], rotations_of(seq))
    assert len(poset.rotations) == 1
    assert poset.arcs == frozenset()


def test_chain3_digraph(chain3):
    stable = brute_stable_set(chain3)
    assert len(stable) == 3
    seq = maximal_sequence(chain3)
    assert len(seq) == 3
    rots = rotations_of(seq)
    poset = precedence_digraph(chain3, seq[0], rots)
    assert len(rots) == 2
    assert poset.arcs == {(0, 1)}
    assert poset.predecessors() == [frozenset(), frozenset({0})]
    closed = set(closed_subsets(poset))
    assert frozenset({0}) in closed and frozenset({1}) not in closed


def test_digraph_rejects_corrupt_rotations(chain3, i1):
    from superstable import Rotation

    seq = maximal_sequence(chain3)
    rots = rotations_of(seq)
    with pytest.raises(ValueError, match="not exposed"):
        precedence_digraph(chain3, seq[1], rots)
    off_list = Rotation(
        removed=frozenset({("a", "x"), ("c", "z")}),
        added=frozenset({("a", "z"), ("c", "x")}),
    )
    with pytest.raises(ValueError, match="missing from the lists"):
        precedence_digraph(chain3, seq[0], [off_list])
    # undoing i1's rotation moves both men up their lists
    with pytest.raises(ValueError, match="a man does not move strictly down"):
        precedence_digraph(i1, MZ_I1, [Rotation(MZ_I1, M0_I1)])
    # both men move down, and woman x from her first choice to her second
    mutual = Instance(
        ["a", "b"],
        ["x", "y"],
        {"a": [["x"], ["y"]], "b": [["y"], ["x"]], "x": [["a"], ["b"]], "y": [["b"], ["a"]]},
    )
    swap = Rotation(removed=M0_I1, added=MZ_I1)
    with pytest.raises(ValueError, match="a woman does not move strictly up"):
        precedence_digraph(mutual, M0_I1, [swap])
    # a moves down and x up, but b takes x while keeping y: two partners
    stray = Rotation(frozenset({("a", "x")}), frozenset({("a", "y"), ("b", "x")}))
    with pytest.raises(ValueError, match="does not preserve the matched agents"):
        precedence_digraph(chain3, seq[0], [stray])
    with pytest.raises(ValueError, match="does not preserve the matched agents"):
        rotations_of([seq[0], (seq[0] - stray.removed) | stray.added])


def test_rotation_direction_sweep():
    for k in range(120):
        n = 2 + (k % 5)
        inst = random_instance(n, n, 0.8, 0.3, seed=46_000 + k)
        seq = maximal_sequence(inst)
        for rot in rotations_of(seq):
            removed_men = dict(rot.removed)
            added_men = dict(rot.added)
            assert set(removed_men) == set(added_men)
            for m in removed_men:
                assert inst.man_rank(m, added_men[m]) > inst.man_rank(m, removed_men[m])
            removed_women = {w: m for m, w in rot.removed}
            added_women = {w: m for m, w in rot.added}
            assert set(removed_women) == set(added_women)
            for w in removed_women:
                assert inst.woman_rank(w, added_women[w]) < inst.woman_rank(w, removed_women[w])
            assert not rot.removed & rot.added


def test_sequence_properties_sweep():
    from superstable import SUPER, blocking_edges

    for k in range(150):
        n = 2 + (k % 5)
        inst = random_instance(n, n, 0.7, 0.3, seed=47_000 + k)
        stable = brute_stable_set(inst, max_edges=40)
        seq = maximal_sequence(inst)
        assert bool(seq) == bool(stable), k
        if not seq:
            continue
        for m in seq:
            assert blocking_edges(inst, m, SUPER) == frozenset(), k
        assert seq[0] == man_optimal_of(inst, stable), k
        for i in range(1, len(seq)):
            assert dominates(inst, seq[i - 1], seq[i]) and seq[i - 1] != seq[i]
            for other in stable:
                if other in (seq[i - 1], seq[i]):
                    continue
                assert not (
                    dominates(inst, seq[i - 1], other) and dominates(inst, other, seq[i])
                ), (k, i)


def test_chain_invariance_sweep():
    rich = 0
    for k in range(120):
        n = 5 + (k % 2)
        inst = random_instance(n, n, 1.0, 0.0, seed=48_000 + k)
        stable = brute_stable_set(inst, max_edges=40)
        if len(stable) < 3:
            continue
        rich += 1
        mine = {(r.removed, r.added) for r in rotations_of(maximal_sequence(inst))}
        theirs = {(r.removed, r.added) for r in rotations_of(oracle_chain(inst, stable))}
        assert mine == theirs, k
        if rich >= 20:
            break
    assert rich >= 10


def test_multi_cycle_rotation_regressions():
    # seeds that once produced blocked intermediates or spurious arcs:
    # tied instances whose rotations couple several cycles, or whose
    # precedence hinges on ties with a current partner
    from superstable import enumerate_all

    for seed in (600455, 601262, 602954):
        inst = random_instance(6, 6, 0.9, 0.12, seed=seed)
        stable = set(brute_stable_set(inst, max_edges=40))
        sequence = maximal_sequence(inst)
        for matching in sequence:
            assert matching in stable, seed
        enumerated = list(enumerate_all(inst))
        assert set(enumerated) == stable and len(enumerated) == len(stable), seed


def test_digraph_acyclic_sweep():
    for k in range(120):
        n = 3 + (k % 4)
        inst = random_instance(n, n, 0.9, 0.2, seed=49_000 + k)
        seq = maximal_sequence(inst)
        if not seq:
            continue
        rots = rotations_of(seq)
        poset = precedence_digraph(inst, seq[0], rots)
        # arcs agree with discovery order, so the digraph is acyclic
        for i, j in poset.arcs:
            assert 0 <= i < j < len(rots)


def test_woman_side_failure_raises(i1, monkeypatch):
    def men_only(inst, side=MEN):
        return optimal_super_stable(inst, MEN) if side == MEN else None

    monkeypatch.setattr(rotations, "optimal_super_stable", men_only)
    with pytest.raises(RuntimeError, match="woman-optimal"):
        maximal_sequence(i1)


def test_chain_at_scale_sweep():
    # beyond brute force: the chain must join the two independent solves
    # through super-stable matchings the definition-level oracle accepts
    for k in range(4):
        n = 100 + 50 * (k % 2)
        inst = random_instance(n, n, 0.3, 0.0, seed=44_000 + k)
        chain = maximal_sequence(inst)
        assert chain[0] == optimal_super_stable(inst, MEN), k
        assert chain[-1] == optimal_super_stable(inst, WOMEN), k
        assert len(chain) > 2, k
        for matching in chain:
            assert not has_blocking_edge(inst, matching, "super"), k
        assert all(chain[i - 1] != chain[i] for i in range(1, len(chain))), k
        precedence_digraph(inst, chain[0], rotations_of(chain))


def test_tied_chain_at_scale_under_tie_breaking():
    # a super-stable matching is stable under every strict tie-breaking, so
    # each matching on the chain of a large tied instance must survive them.
    # The merged-tier chains are short (3 rotations); the drop-block unions
    # carry 13 and 200
    inputs = []
    for k in range(2):
        inst, kept = merged_tiers(47_000 + k, 100 + 20 * k, 60)
        assert kept > 50, k
        inputs.append((inst, 3))
    inputs += [(drop_union(1, mixed=True), 13), (drop_union(20), 200)]
    for k, (inst, rotations) in enumerate(inputs):
        chain = maximal_sequence(inst)
        assert chain[0] == optimal_super_stable(inst, MEN), k
        assert chain[-1] == optimal_super_stable(inst, WOMEN), k
        assert len(chain) == rotations + 1, k
        rng = random.Random(k)
        for _ in range(3):
            prefs = {
                agent: [[x] for tier in tiers for x in rng.sample(tier, len(tier))]
                for agent, tiers in inst.prefs.items()
            }
            strict = Instance(inst.men, inst.women, prefs)
            for matching in chain:
                assert blocking_edges(strict, matching, SUPER) == frozenset(), k


def _chain_of(inst, chain_class=rotations._Chain):
    first = optimal_super_stable(inst, MEN)
    last = optimal_super_stable(inst, WOMEN)
    chain = chain_class(inst, first, last)
    return chain, [first] + chain.run()


def test_chain_rebuilds_stay_per_rotation():
    # the ready heap reads about one group per rotation fired, not every
    # component at each call; here every group read fires (28 of 28)
    inst = random_instance(200, 200, 0.5, 0.0, seed=45_200)
    chain, sequence = _chain_of(inst)
    fired = len(sequence) - 1
    assert fired > 10
    assert chain.examined <= 3 * fired


def test_chain_work_stays_per_edge():
    # on a disjoint union every rotation stays inside one 5 x 5 block, so a
    # search that pays per change does the same work per edge at 200 and
    # 800 blocks; sweeping every man per round would visit 1.8 and 2.4 men
    # per edge here.  The bounds sit about 1.6 times over the 0.31 visits
    # and 0.029 examined groups per edge measured at both sizes
    per_edge = []
    for n in (1_000, 4_000):
        inst = block_union(61_000, n, 0.0)
        chain, sequence = _chain_of(inst)
        edges = len(inst.edges)
        assert len(sequence) - 1 > n // 10
        per_edge.append((chain.visits / edges, chain.examined / edges))
    for small, large in zip(*per_edge):
        assert max(small, large) <= 2 * min(small, large), per_edge
    for visits, examined in per_edge:
        assert visits <= 0.5 and examined <= 0.045, per_edge


@pytest.mark.slow
def test_long_chain_on_the_cyclic_shift():
    # 1,000 rotations, each moving every man, over a million edges
    n = 1_001
    inst = cyclic_shift(n)
    first, poset = build_poset(inst)
    assert len(poset.rotations) == n - 1
    last = matching_of(first, poset.rotations, range(n - 1))
    assert last == optimal_super_stable(inst, WOMEN)
    assert poset.arcs == {(k, k + 1) for k in range(n - 2)}
    del first, poset, last
    # matching k pairs m_i with w_(i+k); weigh matching 500 alone
    peak = n // 2
    weights = {(f"m{i}", f"w{(i + peak) % n}"): 1 for i in range(n)}
    best, total = max_weight(inst, weights)
    assert total == n and best == frozenset(weights)


def _components_from_scratch(chain):
    """Each strongly connected block, by plain reachability, mapped to its
    number of leaving traversed arcs."""
    nm = chain.nm
    nv = nm + chain.nw
    succ = [[nm + w for w in chain.trav_m[v]] for v in range(nm)]
    succ += [[] if m is None else [m] for m in chain.match_w]
    reach = []
    for v in range(nv):
        seen = {v}
        stack = [v]
        while stack:
            for u in succ[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        reach.append(seen)
    block = {v: frozenset(u for u in reach[v] if v in reach[u]) for v in range(nv)}
    leaving = dict.fromkeys(block.values(), 0)
    for m in range(nm):
        for u in succ[m]:
            if u not in block[m]:
                leaving[block[m]] += 1
    return leaving


def _pool_left(chain, m):
    """True when man m has an untried woman left, read without moving
    ``untried[m]``."""
    tiers = chain.inst._man_tiers[m]
    return any(
        chain.wrank[w][m] <= chain.bottom[w] for tier in tiers[chain.untried[m] :] for w in tier
    )


class _CheckedChain(rotations._Chain):
    """Compares the locally kept components with a recomputation at every
    step, checks that each man's untried tiers lie below his partner, that
    each woman's bound lies within her partner, never rises and admits
    her candidates, which are tied, and checks the invariants that let
    ``_rotation_plan`` fire a group on its candidate counts alone.  Also
    checks that every open multi-vertex group is queued under its smallest
    member, and that every man whose visit could act is queued: in the
    current round when he comes after the visited man, else in the next.
    ``drops`` counts the ties given up in ``_drop_tied_candidates``, and
    ``stale`` the women it strikes from ``_tied`` for holding fewer than
    two candidates."""

    def __init__(self, *args):
        super().__init__(*args)
        self.drops = 0
        self.stale = 0
        self._bottom_before = list(self.bottom)

    def _check(self):
        for w, m in enumerate(self.match_w):
            assert self.bottom[w] <= (0 if m is None else self.wrank[w][m])
            assert self.bottom[w] <= self._bottom_before[w]
            ranks = {self.wrank[w][x] for x in self.cand_w[w]}
            assert len(ranks) <= 1 and all(r <= self.bottom[w] for r in ranks)
        self._bottom_before = list(self.bottom)
        blocks: dict[int, set] = {}
        for v, cid in enumerate(self._comp):
            blocks.setdefault(cid, set()).add(v)
        assert {c: set(g) for c, g in self._members.items()} == blocks
        mine = {frozenset(g): self._outdeg[c] for c, g in blocks.items()}
        assert mine == _components_from_scratch(self)
        for m, w in enumerate(self.match_m):
            assert w is None or self.untried[m] >= self.mrank[m][w]
            if w == self.last_m[m]:
                assert not self.trav_m[m]
                assert not self.cand_m[m]
            else:
                assert self.cand_m[m] <= self.trav_m[m]
        for w, m in enumerate(self.match_w):
            if len(blocks[self._comp[self.nm + w]]) > 1:
                assert m is not None and self._comp[m] == self._comp[self.nm + w]
        for c, g in blocks.items():
            if len(g) > 1 and self._outdeg[c] == 0:
                least = min(g)
                assert self._least[c] == least
                assert self._ready.get(c) == least and (least, c) in self._heap
        for m in range(self.nm):
            if m == self._pos or self.match_m[m] == self.last_m[m] or self.cand_m[m]:
                continue
            if self._outdeg[self._comp[m]] == 0 and _pool_left(self, m):
                pending = m > self._pos and m in self._queue
                assert pending or m in self._due

    def _add_arc(self, m, w):
        super()._add_arc(m, w)
        self._check()

    def _search_round(self):
        acted = super()._search_round()
        self._check()
        return acted

    def _rotation_plan(self, group):
        plan = super()._rotation_plan(group)
        if plan is not None:
            removed, added = plan
            inside = set(group)
            nm = self.nm
            assert all(nm + w in inside for _, w in added)
            assert all(m in inside for v in inside if v >= nm for m in self.cand_w[v - nm])
            assert all(w is not None and nm + w in inside for _, w in removed)
            assert not set(removed) & set(added)
        return plan

    def _drop_tied_candidates(self):
        # a drop discards only its own woman's candidates, so the women
        # struck as stale are those that leave ``_tied`` with fewer than two
        stale = {w for w in self._tied if len(self.cand_w[w]) < 2}
        dropped = super()._drop_tied_candidates()
        self.drops += dropped
        self.stale += len(stale - self._tied)
        self._check()
        return dropped

    def _rotate_once(self, outputs):
        fired = super()._rotate_once(outputs)
        self._check()
        return fired


def test_local_components_match_recomputation_sweep():
    checked = 0
    for k in range(80):
        n = 4 + (k % 9)
        ties = (0.0, 0.1, 0.3)[k % 3]
        inst = random_instance(n, n, 0.8, ties, seed=45_000 + k)
        sequence = maximal_sequence(inst)
        if len(sequence) < 2:
            continue
        checked += 1
        _, replayed = _chain_of(inst, _CheckedChain)
        assert replayed == sequence, k
    assert checked >= 20


@pytest.mark.parametrize(
    "tie_prob, seed",
    [(0.1, 71167), (0.1, 71370), (0.1, 73705), (0.1, 75657), (0.2, 71370), (0.2, 72206)],
)
def test_chain_drops_tied_candidates(tie_prob, seed):
    # a woman left holding tied candidates in an open component gives up
    # their whole rank; these instances reach that branch
    from superstable import enumerate_all

    inst = random_instance(5, 5, 1.0, tie_prob, seed=seed)
    chain, sequence = _chain_of(inst, _CheckedChain)
    assert chain.drops
    assert sequence == maximal_sequence(inst)
    stable = brute_stable_set(inst, max_edges=25)
    assert all(m in stable for m in sequence)
    assert sequence[0] == man_optimal_of(inst, stable)
    for above, below in zip(sequence, sequence[1:]):
        assert above != below and dominates(inst, above, below)
        assert not any(
            dominates(inst, above, other) and dominates(inst, other, below)
            for other in stable
            if other not in (above, below)
        )
    enumerated = list(enumerate_all(inst))
    assert set(enumerated) == set(stable) and len(enumerated) == len(stable)


def _between_optima(inst, first, last):
    """Every super-stable matching, by brute force.  All of them match the
    same men as the optima, each to a partner between his two optimal ones,
    so only those matchings are tried."""
    men = sorted(m for m, _ in first)
    top, bottom = dict(first), dict(last)
    options = {
        m: [
            w
            for tier in inst.prefs[m]
            for w in tier
            if inst.man_rank(m, top[m]) <= inst.man_rank(m, w) <= inst.man_rank(m, bottom[m])
        ]
        for m in men
    }
    found = []

    def walk(i, taken):
        if i == len(men):
            matching = frozenset(zip(men, taken))
            if not has_blocking_edge(inst, matching, "super"):
                found.append(matching)
            return
        for w in options[men[i]]:
            if w not in taken:
                walk(i + 1, taken + [w])

    walk(0, [])
    return found


@pytest.mark.parametrize(
    "inst",
    [random_instance(10, 10, 1.0, 0.2, seed=505501404), parse_instance(TIER_DELETION_TEXT)],
    ids=["random_10x10", "tied_women_8x8"],
)
def test_tier_deletion_counterexamples(inst):
    from superstable import build_poset, enumerate_all

    chain, sequence = _chain_of(inst, _CheckedChain)
    assert chain.drops
    assert sequence == maximal_sequence(inst)
    assert sequence[0] == optimal_super_stable(inst, MEN)
    assert sequence[-1] == optimal_super_stable(inst, WOMEN)
    for matching in sequence:
        assert not has_blocking_edge(inst, matching, "super")
    assert build_poset(inst) is not None
    enumerated = list(enumerate_all(inst))
    brute = _between_optima(inst, sequence[0], sequence[-1])
    assert len(enumerated) == len(set(enumerated)) and set(enumerated) == set(brute)


@pytest.mark.parametrize(
    "inst, size",
    [
        (random_instance(8, 8, 0.8, 0.2, seed=5269), 3),
        (random_instance(6, 6, 1.0, 0.2, seed=35921), 2),
    ],
    ids=["sparse_8x8", "complete_6x6"],
)
def test_chain_strikes_stale_tied_women(inst, size):
    # a woman left in ``_tied`` after losing a candidate is struck off when
    # the drop scan meets her; a search of seeds 0-59,999 found only these
    # two instances that reach that branch
    from superstable import enumerate_all

    chain, sequence = _chain_of(inst, _CheckedChain)
    assert chain.stale
    assert sequence == maximal_sequence(inst)
    enumerated = list(enumerate_all(inst))
    brute = _between_optima(inst, sequence[0], sequence[-1])
    assert len(enumerated) == len(set(enumerated)) == size
    assert set(enumerated) == set(brute)


def test_drop_block_union():
    # every block of the union fires its drop, and the union's lattice is the
    # product of the blocks' lattices, checked against brute force per block
    from superstable import enumerate_all

    blocks = [random_instance(5, 5, 1.0, 0.3, seed=seed) for seed in DROP_SEEDS]
    inst = union_of(blocks)
    chain, _ = _chain_of(inst, _CheckedChain)
    assert chain.drops == len(blocks)
    _, poset = build_poset(inst)
    assert len(poset.rotations) == len(blocks) and poset.arcs == frozenset()
    lattices = [
        [
            frozenset((m + f"_{b}", w + f"_{b}") for m, w in matching)
            for matching in brute_stable_set(block, max_edges=25)
        ]
        for b, block in enumerate(blocks)
    ]
    assert [len(lattice) for lattice in lattices] == [2] * len(blocks)
    enumerated = list(enumerate_all(inst))
    assert len(enumerated) == len(set(enumerated)) == 2 ** len(blocks)
    assert set(enumerated) == {frozenset().union(*parts) for parts in product(*lattices)}
    rng = random.Random(0)
    weights = {edge: rng.randint(-9, 9) for edge in inst.edges}
    best, total = max_weight(inst, weights)

    def worth(matching):
        return sum(weights[edge] for edge in matching)

    assert total == worth(best) == sum(max(map(worth, lattice)) for lattice in lattices)


def test_drop_blocks_mixed_with_counterexamples():
    # the drop blocks and both pinned counterexamples in one union, so drops
    # interleave with multi-cycle rotations; each block's lattice is found by
    # brute force, between its optima for the larger two
    from superstable import enumerate_all

    blocks = [random_instance(5, 5, 1.0, 0.3, seed=seed) for seed in DROP_SEEDS]
    blocks += [random_instance(10, 10, 1.0, 0.2, seed=505501404), parse_instance(TIER_DELETION_TEXT)]
    inst = union_of(blocks)
    assert (len(inst.men), len(inst.edges)) == (68, 414)
    chain, sequence = _chain_of(inst, _CheckedChain)
    assert chain.drops == 12 and sequence == maximal_sequence(inst)
    _, poset = build_poset(inst)
    assert len(poset.rotations) == 13 and len(poset.arcs) == 1
    lattices = []
    for b, block in enumerate(blocks):
        if len(block.men) == 5:
            found = brute_stable_set(block, max_edges=25)
        else:
            top, bottom = (optimal_super_stable(block, side) for side in (MEN, WOMEN))
            found = _between_optima(block, top, bottom)
        lattices.append([frozenset((m + f"_{b}", w + f"_{b}") for m, w in x) for x in found])
    assert [len(lattice) for lattice in lattices] == [2] * 10 + [2, 3]
    enumerated = list(enumerate_all(inst))
    assert len(enumerated) == len(set(enumerated)) == 6_144
    assert set(enumerated) == {frozenset().union(*parts) for parts in product(*lattices)}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from((0.1, 0.4)).flatmap(lambda p: tied_halves(tie_prob=p)))
def test_maximal_sequence_property(inst):
    chain = maximal_sequence(inst)
    stable = brute_stable_set(inst, max_edges=21)
    assert bool(chain) == bool(stable)
    if chain:
        assert chain[0] == optimal_super_stable(inst, MEN)
        assert chain[-1] == optimal_super_stable(inst, WOMEN)
        assert all(m in stable for m in chain)
        for above, below in zip(chain, chain[1:]):
            assert above != below and dominates(inst, above, below)


def _reproducer(err):
    """The instance that an internal error's message carries after its
    first line."""
    return parse_instance(str(err).split("\n", 1)[1])


def test_chain_errors_carry_a_reproducer(monkeypatch):
    inst = random_instance(8, 8, 1.0, 0.2, seed=13_510)
    assert len(maximal_sequence(inst)) > 2

    def exhausted(self, m):
        raise RuntimeError("untried pool exhausted (internal error)")

    monkeypatch.setattr(rotations._Chain, "_pool_top", exhausted)
    for call in (maximal_sequence, build_poset):
        with pytest.raises(RuntimeError, match="untried pool exhausted") as caught:
            call(inst)
        assert _reproducer(caught.value) == inst


def test_arc_against_discovery_order_carries_a_reproducer():
    # rotation 0 precedes rotation 1 here, yet either order replays: given
    # in reverse, they yield an arc from position 1 to 0
    inst = random_instance(4, 4, 1.0, 0.0, seed=273)
    first, poset = build_poset(inst)
    assert poset.arcs == {(0, 1)}
    with pytest.raises(RuntimeError, match="precedence arc contradicts") as caught:
        precedence_digraph(inst, first, poset.rotations[::-1])
    assert _reproducer(caught.value) == inst
