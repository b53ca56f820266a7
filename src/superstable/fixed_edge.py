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


def optimal_with_edge(inst: Instance, edge):
    """Man-optimal super-stable matching containing ``edge``, or None.

    Read off the irreducible family: the matching of the element whose
    witnesses hold the edge, which replays only that element's rotations.
    Each call builds the whole poset (both solves, the chain and the
    precedence digraph); to query many edges, read the witnesses of
    ``irreducible_poset`` instead.
    """
    m0, w0 = edge
    if not inst.is_edge(m0, w0):
        raise ValueError(f"({m0!r}, {w0!r}) is not an edge")
    try:
        family = irreducible_poset(inst)
    except NoSuperStableMatching:
        return None
    return next((e.matching for e in family.elements if (m0, w0) in e.witnesses), None)


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


@dataclass(frozen=True, eq=False)
class _Family:
    """What the elements of one irreducible family share, indexed by element
    position: the rotation each element eliminates last (None for the top
    matching) and the elements it covers."""

    inst: Instance
    first: frozenset
    rotations: tuple
    rotation: tuple
    below: tuple

    def down_set(self, k: int) -> set[int]:
        """The positions of the elements weakly below element k."""
        seen = {k}
        stack = [k]
        while stack:
            for i in self.below[stack.pop()]:
                if i not in seen:
                    seen.add(i)
                    stack.append(i)
        return seen


@dataclass(frozen=True)
class IrreducibleElement:
    """One edge-minimal matching: the edges it is the optimum through, and
    its position in its family.  ``matching`` and ``pairs`` are derived on
    each read, from the top matching and the rotations of the down-set."""

    witnesses: tuple
    _family: _Family
    _position: int

    @property
    def matching(self) -> frozenset:
        family = self._family
        members = {family.rotation[i] for i in family.down_set(self._position)} - {None}
        return matching_of(family.first, family.rotations, members) if members else family.first

    @property
    def pairs(self) -> frozenset:
        """The P-set; every element is super-stable, so ``p_set``'s check is skipped."""
        inst = self._family.inst
        return _prefix_pairs(inst, _indexed(inst, self.matching)[1])


@dataclass(frozen=True)
class IrreduciblePoset:
    """Distinct edge-minimal matchings ordered by strict P-set containment.

    The order is held as its Hasse diagram, each element's lower covers in
    the shared family record.  ``order`` is its transitive closure, derived
    on each read.
    """

    elements: tuple[IrreducibleElement, ...]
    _family: _Family

    @property
    def order(self) -> frozenset:
        """(i, j) with elements[i].pairs a proper subset of elements[j].pairs."""
        family = self._family
        return frozenset(
            (i, j) for j in range(len(self.elements)) for i in family.down_set(j) if i != j
        )

    def covers(self) -> list[tuple[int, int]]:
        """The Hasse diagram of the containment order, sorted."""
        return sorted((i, j) for j, lower in enumerate(self._family.below) for i in lower)


def irreducible_poset(inst: Instance) -> IrreduciblePoset:
    """One element per distinct optimal_with_edge matching, all witnesses kept.

    Element k's edges are those it is the man-optimal matching through: the
    top matching's own edges, or the edges its rotation adds, which no
    matching without that rotation's down-closure holds.  Elements follow
    their first witness in ``inst.edges``.  By Birkhoff's representation
    theorem their P-set containment order is the rotation order, so its
    Hasse diagram is read off the rotation arcs: the top matching lies below
    each rotation without predecessors, and the transitive reduction of the
    arcs gives the other covers.  Nothing is replayed here; an element's
    matching and P-set are derived when read.  Raises NoSuperStableMatching
    when infeasible.
    """
    built = build_poset(inst)
    if built is None:
        raise NoSuperStableMatching("instance admits no super-stable matching")
    first, poset = built
    owner = dict.fromkeys(first)  # edge -> its element's rotation, None for the top
    lower: dict = {}  # rotation -> the rotations it covers, None for the top
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
        lower[r] = [p for p in preds if not beneath >> p & 1] or [None]
        owner.update(dict.fromkeys(rot.added, r))
    witnesses: dict = {}
    for edge in inst.edges:
        if edge in owner:
            witnesses.setdefault(owner[edge], []).append(edge)
    # a rotation exists only below a nonempty top matching, which has
    # witnesses, and each rotation's added pairs witness its element
    position = {key: i for i, key in enumerate(witnesses)}
    family = _Family(
        inst,
        first,
        poset.rotations,
        tuple(witnesses),
        tuple(tuple(position[c] for c in lower.get(key, ())) for key in witnesses),
    )
    elements = (IrreducibleElement(tuple(w), family, i) for i, w in enumerate(witnesses.values()))
    return IrreduciblePoset(tuple(elements), family)
