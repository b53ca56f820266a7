"""Optimal super-stable matchings through a prescribed edge, and the
containment order on the resulting irreducible family."""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance
from .lattice import build_poset, matching_of
from .stability import NoSuperStableMatching, _blocking, _indexed


def reduce_for_edge(inst: Instance, edge) -> Instance:
    """The instance left after committing to ``edge``.

    Both endpoints disappear with their edges.  Additionally, any man the
    woman weakly prefers to her fixed partner loses every pair he does not
    strictly prefer to her, and symmetrically for women the man weakly
    prefers.  Surviving lists keep their tier order, with emptied tiers
    dropped.  Solving this and re-attaching the edge is the paper's route to
    fixed-edge optima, kept as the reference the tests check the poset against.
    """
    m0, w0 = edge
    if not inst.is_edge(m0, w0):
        raise ValueError(f"({m0!r}, {w0!r}) is not an edge")
    removed: set[tuple[str, str]] = set()
    pivot = inst.woman_rank(w0, m0)
    for m1 in inst.neighbors(w0):
        if inst.woman_rank(w0, m1) <= pivot:
            cut = inst.man_rank(m1, w0)
            for w1 in inst.neighbors(m1):
                if inst.man_rank(m1, w1) >= cut:
                    removed.add((m1, w1))
    pivot = inst.man_rank(m0, w0)
    for w1 in inst.neighbors(m0):
        if inst.man_rank(m0, w1) <= pivot:
            cut = inst.woman_rank(w1, m0)
            for m1 in inst.neighbors(w1):
                if inst.woman_rank(w1, m1) >= cut:
                    removed.add((m1, w1))

    def gone(man: str, woman: str) -> bool:
        return man == m0 or woman == w0 or (man, woman) in removed

    men = [m for m in inst.men if m != m0]
    women = [w for w in inst.women if w != w0]
    prefs: dict[str, list[list[str]]] = {}
    for m in men:
        prefs[m] = [
            kept
            for tier in inst.prefs[m]
            if (kept := [w for w in tier if not gone(m, w)])
        ]
    for w in women:
        prefs[w] = [
            kept
            for tier in inst.prefs[w]
            if (kept := [m for m in tier if not gone(m, w)])
        ]
    return Instance(men, women, prefs)


def _edge_optima(inst: Instance):
    """Each edge of some super-stable matching -> the man-optimal one through
    it: the top matching, or the one after the down-closure of the rotation
    that adds the edge.  None when infeasible."""
    built = build_poset(inst)
    if built is None:
        return None
    first, poset = built
    optima = dict.fromkeys(first, first)
    closures: list[set[int]] = []  # discovery order is a linear extension
    for rot, preds in zip(poset.rotations, poset.predecessors()):
        closures.append({rot.index}.union(*(closures[i] for i in preds)))
        found = matching_of(first, poset.rotations, closures[-1])
        optima.update(dict.fromkeys(rot.added, found))
    return optima


def optimal_with_edge(inst: Instance, edge):
    """Man-optimal super-stable matching containing ``edge``, or None.

    Read off the rotation poset: the top matching if it holds the edge, else
    the one after the down-closure of the rotation that adds it, if any.
    """
    m0, w0 = edge
    if not inst.is_edge(m0, w0):
        raise ValueError(f"({m0!r}, {w0!r}) is not an edge")
    return (_edge_optima(inst) or {}).get((m0, w0))


def p_set(inst: Instance, matching) -> frozenset:
    """All pairs (m, w) with w weakly preferred by m to his partner.

    Unmatched men contribute nothing.  Requires a super-stable matching.
    Each man's list is walked in preference order down to his partner's
    tier: a prefix walk per man, O(|E|) at worst, after the
    ``blocking_edges`` check.
    """
    indexed = _indexed(inst, matching)
    if _blocking(inst, indexed):
        raise ValueError("p_set is defined for super-stable matchings only")
    pairs = []
    for i, held in enumerate(indexed[1]):
        if held < 0:
            continue
        ranks = inst._man_rank[i]
        cutoff = ranks[held]
        for j, r in ranks.items():
            if r > cutoff:
                break
            pairs.append((inst.men[i], inst.women[j]))
    return frozenset(pairs)


@dataclass(frozen=True)
class IrreducibleElement:
    matching: frozenset
    witnesses: tuple
    pairs: frozenset  # the P-set


@dataclass(frozen=True)
class IrreduciblePoset:
    """Distinct edge-minimal matchings ordered by strict P-set containment."""

    elements: tuple[IrreducibleElement, ...]
    order: frozenset  # (i, j) with elements[i].pairs a proper subset of elements[j].pairs

    def covers(self) -> list[tuple[int, int]]:
        """The Hasse diagram of the containment order."""
        below: dict[int, set[int]] = {}
        for i, j in self.order:
            below.setdefault(j, set()).add(i)
        out = []
        for i, j in sorted(self.order):
            if not any((i, k) in self.order for k in below.get(j, ())):
                out.append((i, j))
        return out


def irreducible_poset(inst: Instance) -> IrreduciblePoset:
    """One element per distinct optimal_with_edge matching, all witnesses kept.

    Elements (the top matching and one per rotation) follow their first
    witness in ``inst.edges``.  Raises NoSuperStableMatching when infeasible.
    """
    optima = _edge_optima(inst)
    if optima is None:
        raise NoSuperStableMatching("instance admits no super-stable matching")
    witnesses: dict[frozenset, list[tuple[str, str]]] = {}
    for edge in inst.edges:
        if edge in optima:
            witnesses.setdefault(optima[edge], []).append(edge)
    elements = tuple(
        IrreducibleElement(matching, tuple(wit), p_set(inst, matching))
        for matching, wit in witnesses.items()
    )
    order = frozenset(
        (i, j)
        for i, a in enumerate(elements)
        for j, b in enumerate(elements)
        if i != j and a.pairs < b.pairs
    )
    return IrreduciblePoset(elements, order)
