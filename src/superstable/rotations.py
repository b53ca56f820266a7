"""Maximal chains of super-stable matchings, their rotations, and the
precedence digraph whose closed subsets index every super-stable matching."""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, MEN, WOMEN
from .stability import optimal_super_stable, validate_matching


@dataclass(frozen=True)
class Rotation:
    """Difference between two consecutive matchings of a maximal chain.

    ``removed`` and ``added`` cover the same agents; every man moves strictly
    down his list and every woman strictly up hers.  A single rotation may
    consist of several disjoint cycles.  It is named by its position in
    ``RotationPoset.rotations``, the order in which the chain met it.
    """

    removed: frozenset
    added: frozenset


@dataclass(frozen=True)
class RotationPoset:
    """Rotations plus the precedence arcs; (i, j) means i must happen first."""

    rotations: tuple[Rotation, ...]
    arcs: frozenset

    def predecessors(self) -> list[frozenset]:
        """Direct predecessors per rotation position."""
        direct: list[set[int]] = [set() for _ in self.rotations]
        for i, j in self.arcs:
            direct[j].add(i)
        return [frozenset(s) for s in direct]


def _eliminate(first, rotations, subset) -> frozenset:
    """The top matching after the rotations at the chosen positions: the
    replay behind ``lattice.matching_of`` and ``precedence_digraph``'s check
    of its input.  A rotation not exposed at its turn means a non-closed
    subset or corrupt rotations."""
    current = set(first)
    for k in sorted(set(subset)):
        if not 0 <= k < len(rotations):
            raise ValueError(f"subset member {k!r} names no rotation")
        rot = rotations[k]
        if not rot.removed <= current:
            raise ValueError(f"rotation {k} is not exposed at its turn")
        current -= rot.removed
        current |= rot.added
    return frozenset(current)


def maximal_sequence(inst: Instance) -> list[frozenset]:
    """A maximal chain of super-stable matchings, best-for-men first.

    Empty when the instance is infeasible.  Consecutive entries are strict
    successors: no super-stable matching fits strictly between them.  The
    first entry is the man-optimal matching and the last the woman-optimal
    one.
    """
    first = optimal_super_stable(inst, MEN)
    if first is None:
        return []
    last = optimal_super_stable(inst, WOMEN)
    if last is None:
        raise RuntimeError("woman-optimal solve failed after the man-optimal one succeeded")
    return [first] + _Chain(inst, first, last).run()


def rotations_of(sequence) -> list[Rotation]:
    """Rotations along a maximal chain: consecutive set differences."""
    rotations = []
    for i in range(1, len(sequence)):
        prev = frozenset(sequence[i - 1])
        cur = frozenset(sequence[i])
        removed = prev - cur
        added = cur - prev
        if not removed and not added:
            raise ValueError(f"consecutive matchings {i - 1} and {i} are equal")
        if {a for p in removed for a in p} != {a for p in added for a in p}:
            raise ValueError("rotation does not preserve the matched agents")
        rotations.append(Rotation(removed, added))
    return rotations


def precedence_digraph(inst: Instance, first, rotations) -> RotationPoset:
    """Precedence arcs between rotations via preference-list labeling.

    Each removed pair marks the position where its rotation takes the woman
    away from the man ("handoff").  Each man a woman climbs strictly past
    marks her position on his list with a "crossing" of that rotation.  A
    top-down scan of every man's list then emits: handoff after handoff in
    list order, and for each crossing an arc from the crossing rotation to
    the rotation that moves the man below that woman.  The transitive
    closure of the arcs is the full precedence order.
    """
    first = validate_matching(inst, first)
    _eliminate(first, rotations, range(len(rotations)))

    midx, widx = inst._midx, inst._widx
    man_rank, woman_rank = inst._man_rank, inst._woman_rank
    handoff: dict[tuple[int, int], tuple[int, int]] = {}  # (rotation, rank he lands on)
    crossing: dict[tuple[int, int], list[int]] = {}
    try:
        for k, rot in enumerate(rotations):
            old_w = {midx[m]: widx[w] for m, w in rot.removed}
            new_w = {midx[m]: widx[w] for m, w in rot.added}
            for mi, wi in old_w.items():
                landing = man_rank[mi][new_w[mi]]
                if landing <= man_rank[mi][wi]:
                    raise ValueError(f"rotation {k}: a man does not move strictly down")
                if (mi, wi) in handoff:
                    raise ValueError(f"two rotations remove the same pair")
                handoff[(mi, wi)] = (k, landing)
            old_m = {widx[w]: midx[m] for m, w in rot.removed}
            new_m = {widx[w]: midx[m] for m, w in rot.added}
            for wi, mi_old in old_m.items():
                lo = woman_rank[wi][new_m[wi]]
                hi = woman_rank[wi][mi_old]
                if lo >= hi:
                    raise ValueError(f"rotation {k}: a woman does not move strictly up")
                # the climb makes her safe against every man she passes,
                # including those tied with the partner she leaves behind
                for tier in inst._woman_tiers[wi][lo:hi]:
                    for x in tier:
                        if x != mi_old:
                            crossing.setdefault((x, wi), []).append(k)
    except KeyError:
        raise ValueError("rotation references a pair missing from the lists") from None

    arcs: set[tuple[int, int]] = set()
    for mi in range(len(inst.men)):
        # the held rotation is the last handoff from a STRICTLY better tier;
        # it endangers the pairs of the current tier exactly when it lands
        # the man at this tier or below (a tied landing already hurts)
        hold: int | None = None
        hold_landing = 0
        for rank0, tier in enumerate(inst._man_tiers[mi]):
            tier_handoff = None
            for wi in tier:
                got = handoff.get((mi, wi))
                if got is None:
                    continue
                rho, landing = got
                if hold is not None:
                    arcs.add((hold, rho))
                tier_handoff = (rho, landing)  # at most one per tier
            if hold is not None and hold_landing >= rank0 + 1:
                for wi in tier:
                    for rho in crossing.get((mi, wi), ()):
                        if hold != rho:
                            arcs.add((rho, hold))
            if tier_handoff is not None:
                hold, hold_landing = tier_handoff
    for i, j in arcs:
        if i >= j:
            raise RuntimeError("precedence arc contradicts discovery order")
    return RotationPoset(tuple(rotations), frozenset(arcs))


# -- successor search --------------------------------------------------------


class _Chain(object):
    """Walks from the man-optimal matching down to the woman-optimal one.

    The search keeps three disjoint edge pools per the following scheme: a
    directed graph of traversed edges (matched pairs point woman-to-man,
    everything else man-to-woman), a candidate set holding each man's best
    viable next partner(s), and the untried remainder of every man's list.
    Only the first two are stored.  The untried pool is read off the lists
    and the current matching: ``untried[m]`` is the first tier of m's list
    not yet tried, and ``dropped[w]`` the ranks w gave up to a tie.
    A man may only extend his reach while the strongly connected component
    he sits in has no traversed arc leaving it; once such a component
    carries a perfect candidate matching, swapping it in yields the next
    matching of the chain.

    A candidate always ranks strictly above the woman's partner.  A man who
    holds his woman-optimal partner holds none and needs none: the sweep
    passes him by, he has no traversed arc and so stands alone, and his
    partner, whose only arc leads to him, stands alone too.  A candidacy
    for her would evict him, so ``_advance`` raises instead.

    The components and their counts of leaving traversed arcs are kept up
    to date locally, never recomputed over the whole graph.  An arc m -> w
    from m's component C either stays inside C (nothing changes), or
    leaves for a vertex that cannot reach C (C gains one leaving arc), or
    closes cycles: a search from w finds every vertex on a path back into
    C, and their components merge into C.  A fired rotation strips every
    traversed arc at its component's vertices, which leaves each of them a
    component of its own.  ``rebuilds`` counts the vertex sets whose
    components were set from scratch: the whole graph once, then each
    fired rotation's component.
    """

    def __init__(self, inst: Instance, first, last):
        self.inst = inst
        nm, nw = len(inst.men), len(inst.women)
        self.nm, self.nw = nm, nw
        midx, widx = inst._midx, inst._widx
        self.mrank = inst._man_rank
        self.wrank = inst._woman_rank
        self.match_m: list[int | None] = [None] * nm
        self.match_w: list[int | None] = [None] * nw
        for m, w in first:
            self.match_m[midx[m]] = widx[w]
            self.match_w[widx[w]] = midx[m]
        self.last_m: list[int | None] = [None] * nm
        for m, w in last:
            self.last_m[midx[m]] = widx[w]
        self.cand_m: list[set[int]] = [set() for _ in range(nm)]
        self.cand_w: list[set[int]] = [set() for _ in range(nw)]
        # traversed arcs, from both ends
        self.trav_m: list[set[int]] = [set() for _ in range(nm)]
        self.trav_w: list[set[int]] = [set() for _ in range(nw)]
        # the untried pool's state (see _pool_top)
        self.untried = [
            len(tiers) if w is None else self.mrank[m][w]
            for m, (tiers, w) in enumerate(zip(inst._man_tiers, self.match_m))
        ]
        self.dropped: list[set[int]] = [set() for _ in range(nw)]
        # vertices: men 0..nm-1, then women.  A component is named after one
        # of its vertices.  With nothing traversed the only arcs are
        # woman-to-partner ones, so every vertex stands alone.
        nv = nm + nw
        self._comp: list[int] = list(range(nv))
        self._members: dict[int, list[int]] = {v: [v] for v in range(nv)}
        self._outdeg: dict[int, int] = dict.fromkeys(range(nv), 0)
        self.rebuilds = 1

    # -- component bookkeeping

    def _vert(self, w: int) -> int:
        return self.nm + w

    def _open(self, v: int) -> bool:
        """True when v's component has no traversed arc leaving it."""
        return self._outdeg[self._comp[v]] == 0

    def _add_arc(self, m: int, w: int) -> None:
        self.trav_m[m].add(w)
        self.trav_w[w].add(m)
        comp = self._comp
        cid = comp[m]
        if comp[self._vert(w)] == cid:
            return
        closing = self._reaching(self._vert(w), cid)
        if not closing:
            self._outdeg[cid] += 1
            return
        # the component's own leaving arcs end at vertices that cannot reach
        # it, so none of them turns internal; merged vertices bring theirs
        for old in {comp[v] for v in closing}:
            del self._members[old], self._outdeg[old]
        for v in closing:
            comp[v] = cid
        self._members[cid].extend(closing)
        self._outdeg[cid] += sum(
            1
            for v in closing
            if v < self.nm
            for x in self.trav_m[v]
            if comp[self._vert(x)] != cid
        )

    def _reaching(self, start: int, cid: int) -> set[int]:
        """Vertices outside component ``cid`` on a path from ``start`` into it."""
        comp, outdeg, nm = self._comp, self._outdeg, self.nm
        preds: dict[int, list[int]] = {start: []}
        found: set[int] = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v < nm:
                succ = [nm + x for x in self.trav_m[v]]
            else:
                held = self.match_w[v - nm]
                succ = [] if held is None else [held]
            for u in succ:
                if comp[u] == cid:
                    found.add(v)
                elif u in preds:
                    preds[u].append(v)
                else:
                    preds[u] = [v]
                    # a man's component without leaving traversed arcs has
                    # no arcs out at all: its women's partners are inside it
                    if u >= nm or outdeg[comp[u]] != 0:
                        stack.append(u)
        stack = list(found)
        while stack:
            for u in preds[stack.pop()]:
                if u not in found:
                    found.add(u)
                    stack.append(u)
        return found

    # -- pools

    def _pool_top(self, m: int) -> list[int]:
        """The untried women of m's first tier that has any, in index order.

        A woman is untried while she has a partner, ranks m no worse than
        him and has not dropped m's rank.  Ties with her partner stay in:
        they never become candidates, but traversing them welds their
        components together until she climbs strictly higher.  Women only
        climb, men only descend and drops only accumulate, so each test
        once failed stays failed, and a skipped tier stays empty.
        """
        tiers = self.inst._man_tiers[m]
        wrank, match_w, dropped = self.wrank, self.match_w, self.dropped
        for i in range(self.untried[m], len(tiers)):
            women = [
                w
                for w in tiers[i]
                if match_w[w] is not None
                and wrank[w][m] <= wrank[w][match_w[w]]
                and wrank[w][m] not in dropped[w]
            ]
            if women:
                self.untried[m] = i
                return sorted(women)
        self.untried[m] = len(tiers)
        return []

    def _cand_discard(self, m: int, w: int) -> None:
        # the traversed arc stays: dropped candidates still tie their
        # components together until a rotation sweeps the edge away
        self.cand_m[m].discard(w)
        self.cand_w[w].discard(m)

    # -- search

    def _advance(self, m: int) -> bool:
        """One tier step for man m; True if any state changed."""
        women = self._pool_top(m)
        if not women:
            return False
        acted = False
        for w in women:
            if w not in self.trav_m[m]:
                self._add_arc(m, w)
                acted = True
        if self._open(m):
            eligible = [
                w for w in women if self.wrank[w][m] < self.wrank[w][self.match_w[w]]
            ]
            self.untried[m] += 1
            for w in eligible:
                if self.last_m[self.match_w[w]] == w:
                    raise RuntimeError("candidate would evict a man at his last partner")
                self.cand_m[m].add(w)
                self.cand_w[w].add(m)
            self._prune_dominated(eligible)
            acted = True
        return acted

    def _prune_dominated(self, women) -> None:
        """Keep only each woman's best-ranked candidates."""
        for w in women:
            if len(self.cand_w[w]) < 2:
                continue
            best = min(self.wrank[w][m] for m in self.cand_w[w])
            for m in [m for m in self.cand_w[w] if self.wrank[w][m] > best]:
                self._cand_discard(m, w)

    def _search_sweep(self) -> bool:
        acted = False
        for m in range(self.nm):
            if self.match_m[m] == self.last_m[m]:
                continue
            if self.cand_m[m]:
                continue
            if not self._open(m):
                continue
            if self._advance(m):
                acted = True
        return acted

    def _drop_tied_candidates(self) -> bool:
        """A woman holding tied candidates in an open component loses that
        whole rank, candidates and untried edges alike."""
        for w in range(self.nw):
            if len(self.cand_w[w]) < 2:
                continue
            if not self._open(self._vert(w)):
                continue
            ranks = {self.wrank[w][m] for m in self.cand_w[w]}
            if len(ranks) != 1:
                raise RuntimeError("surviving candidates of one woman are not tied")
            self.dropped[w].add(ranks.pop())
            for m in sorted(self.cand_w[w]):
                self._cand_discard(m, w)
            return True
        return False

    # -- rotation firing

    def _rotation_plan(self, group: list[int]):
        """(removed, added) if every vertex of the open multi-vertex group
        holds one candidate, else None.  No other test is needed: a man's
        candidates are traversed arcs, and none leaves an open group; a
        woman's only arc leads to her partner.  So the men's candidates are
        distinct women of the group and the women's partners distinct men
        of it, and both maps are bijections: every man's partner is inside,
        and every woman's candidate.  Every candidate ranks strictly above
        her partner, so ``removed`` and ``added`` are disjoint.
        """
        nm = self.nm
        added = []
        for v in group:
            held = self.cand_m[v] if v < nm else self.cand_w[v - nm]
            if len(held) != 1:
                return None
            if v < nm:
                added.append((v, next(iter(held))))
        return [(m, self.match_m[m]) for m, _ in added], added

    def _rotate_once(self, outputs: list) -> bool:
        members = self._members
        ready = [c for c, g in members.items() if len(g) > 1 and self._outdeg[c] == 0]
        for cid in sorted(ready, key=lambda c: min(members[c])):
            group = members[cid]
            plan = self._rotation_plan(group)
            if plan is None:
                continue
            removed, added = plan
            for m, w in removed:
                self.match_m[m] = None
                self.match_w[w] = None
            for m, w in added:
                self.match_m[m] = w
                self.match_w[w] = m
                # by the bijection, the group's only candidacies
                self._cand_discard(m, w)
            outputs.append(self._snapshot())
            # the group was open, so its men's arcs stay inside it; arcs into
            # its women from outside leave their own components
            for m, _ in added:
                for w in self.trav_m[m]:
                    self.trav_w[w].discard(m)
                self.trav_m[m].clear()
            for _, w in added:
                for m in self.trav_w[w]:
                    self.trav_m[m].discard(w)
                    self._outdeg[self._comp[m]] -= 1
                self.trav_w[w].clear()
            # with no traversed arc left at the group and each woman pointing
            # only at her new partner, every vertex of it stands alone
            del members[cid], self._outdeg[cid]
            for v in group:
                self._comp[v] = v
                members[v] = [v]
                self._outdeg[v] = 0
            self.rebuilds += 1
            # untried positions stay: each man took his new partner from
            # his first untried tier and then stepped past that tier
            return True
        return False

    def _snapshot(self) -> frozenset:
        men, women = self.inst.men, self.inst.women
        return frozenset(
            (men[m], women[w]) for m, w in enumerate(self.match_m) if w is not None
        )

    def run(self) -> list[frozenset]:
        outputs: list[frozenset] = []
        while True:
            acted = False
            while self._search_sweep():
                acted = True
            while self._drop_tied_candidates():
                acted = True
            while self._rotate_once(outputs):
                acted = True
            if all(self.match_m[m] == self.last_m[m] for m in range(self.nm)):
                return outputs
            if not acted:
                raise RuntimeError("successor search stalled (internal error)")

