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
    """The irreducible family read off the rotation poset, or None when
    infeasible.

    Returns ``(matchings, covers, owner)``.  Element 0 is the top matching;
    element r + 1 is the matching after the down-closure of rotation r.
    ``covers`` holds the pairs (i, k) where element k covers element i: the
    top matching under each rotation without predecessors, and the
    transitive reduction of the arcs.  ``owner`` maps each edge of some
    super-stable matching to the element that is the man-optimal matching
    through it: the top matching's edges to 0, the edges a rotation adds to
    that rotation's element.
    """
    built = build_poset(inst)
    if built is None:
        return None
    first, poset = built
    matchings = [first]
    covers: list[tuple[int, int]] = []
    owner = dict.fromkeys(first, 0)
    closures: list[int] = []  # per rotation, its down-closure as a bitset of positions
    # discovery order is a linear extension: predecessors come first
    for r, (rot, preds) in enumerate(zip(poset.rotations, poset.predecessors())):
        closure = 1 << r
        beneath = 0  # the rotations strictly below some direct predecessor
        for p in preds:
            closure |= closures[p]
            beneath |= closures[p] ^ (1 << p)
        closures.append(closure)
        # a direct predecessor below no other one is covered; some always
        # is, so only a rotation without predecessors covers the top
        covers.extend((p + 1, r + 1) for p in preds if not beneath >> p & 1)
        if not preds:
            covers.append((0, r + 1))
        members = [i for i in range(r + 1) if closure >> i & 1]
        matchings.append(matching_of(first, poset.rotations, members))
        owner.update(dict.fromkeys(rot.added, r + 1))
    return matchings, covers, owner


def optimal_with_edge(inst: Instance, edge):
    """Man-optimal super-stable matching containing ``edge``, or None.

    Read off the rotation poset: the top matching if it holds the edge, else
    the one after the down-closure of the rotation that adds it, if any.
    Each call builds the whole poset (both solves, the chain and the
    precedence digraph); to query many edges, read the witnesses of
    ``irreducible_poset`` instead.
    """
    m0, w0 = edge
    if not inst.is_edge(m0, w0):
        raise ValueError(f"({m0!r}, {w0!r}) is not an edge")
    found = _edge_optima(inst)
    if found is None:
        return None
    matchings, _, owner = found
    element = owner.get((m0, w0))
    return None if element is None else matchings[element]


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
    return _prefix_pairs(inst, indexed[1])


def _prefix_pairs(inst: Instance, mate_of_man) -> frozenset:
    """The P-set of the matching with these partner indices, unchecked."""
    pairs = []
    for i, held in enumerate(mate_of_man):
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
    """Distinct edge-minimal matchings ordered by strict P-set containment.

    The order is held as its Hasse diagram, ``_covers``: the sorted pairs
    (i, j) where element j covers element i.  ``order`` is its transitive
    closure, derived on each read.
    """

    elements: tuple[IrreducibleElement, ...]
    _covers: tuple

    @property
    def order(self) -> frozenset:
        """(i, j) with elements[i].pairs a proper subset of elements[j].pairs."""
        above: dict[int, list[int]] = {}
        for i, j in self._covers:
            above.setdefault(i, []).append(j)
        order = set()
        for i in range(len(self.elements)):
            stack = [i]
            while stack:
                for j in above.get(stack.pop(), ()):
                    if (i, j) not in order:
                        order.add((i, j))
                        stack.append(j)
        return frozenset(order)

    def covers(self) -> list[tuple[int, int]]:
        """The Hasse diagram of the containment order."""
        return list(self._covers)


def irreducible_poset(inst: Instance) -> IrreduciblePoset:
    """One element per distinct optimal_with_edge matching, all witnesses kept.

    Elements (the top matching and one per rotation) follow their first
    witness in ``inst.edges``.  By Birkhoff's representation theorem their
    P-set containment order is the rotation order, so its Hasse diagram is
    read off the rotation arcs: the top matching lies below each rotation
    without predecessors, and the transitive reduction of the arcs gives the
    other covers.  Every element is super-stable, so its P-set skips
    ``p_set``'s check.  Raises NoSuperStableMatching when infeasible.
    """
    found = _edge_optima(inst)
    if found is None:
        raise NoSuperStableMatching("instance admits no super-stable matching")
    matchings, covers, owner = found
    witnesses: dict[int, list[tuple[str, str]]] = {}
    for edge in inst.edges:
        if edge in owner:
            witnesses.setdefault(owner[edge], []).append(edge)
    position = {element: i for i, element in enumerate(witnesses)}
    elements = tuple(
        IrreducibleElement(
            matchings[k], tuple(wit), _prefix_pairs(inst, _indexed(inst, matchings[k])[1])
        )
        for k, wit in witnesses.items()
    )
    # a rotation exists only below a nonempty top matching, which has
    # witnesses, and each rotation's added pairs witness its element
    return IrreduciblePoset(elements, tuple(sorted((position[i], position[k]) for i, k in covers)))
