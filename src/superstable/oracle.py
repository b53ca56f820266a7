"""Exhaustive reference implementations that gate the fast algorithms at desk scale.

The blocking logic here is written directly from the definitions, walking
tier lists, on purpose: it must not share code with the solver paths it is
used to check.
"""

from __future__ import annotations

from typing import Iterator

from .instance import Instance

SUPER = "super"
STRONG = "strong"


def enumerate_matchings(inst: Instance, max_edges: int = 24) -> Iterator[frozenset]:
    """Yield every matching of ``inst`` exactly once, the empty one first.

    Deterministic order: edges in declaration order, exclude branch before
    include.  ``max_edges`` guards against accidental blow-ups.
    """
    edges = inst.edges
    if len(edges) > max_edges:
        raise ValueError(f"{len(edges)} edges exceeds the guard ({max_edges})")
    used: set[str] = set()
    chosen: list[tuple[str, str]] = []

    def walk(i: int) -> Iterator[frozenset]:
        if i == len(edges):
            yield frozenset(chosen)
            return
        yield from walk(i + 1)
        m, w = edges[i]
        if m not in used and w not in used:
            used.add(m)
            used.add(w)
            chosen.append((m, w))
            yield from walk(i + 1)
            chosen.pop()
            used.discard(m)
            used.discard(w)

    yield from walk(0)


def brute_stable_set(
    inst: Instance, criterion: str = SUPER, max_edges: int = 24
) -> list[frozenset]:
    """All stable matchings under ``criterion``, by filtering every matching."""
    return [
        matching
        for matching in enumerate_matchings(inst, max_edges=max_edges)
        if not has_blocking_edge(inst, matching, criterion)
    ]


def has_blocking_edge(inst: Instance, matching: frozenset, criterion: str) -> bool:
    """Definition-level blocking test (independent of the stability module)."""
    if criterion not in (SUPER, STRONG):
        raise ValueError(f"unknown criterion {criterion!r}")
    held_by_man = {m: w for m, w in matching}
    held_by_woman = {w: m for m, w in matching}
    # every edge is listed on both sides, so each man's tiers hold his edges
    for m in inst.men:
        held = held_by_man.get(m)
        for tier in inst.prefs[m]:
            for w in tier:
                if w == held:
                    continue
                m_better, m_not_worse = _improvement(inst, m, w, held)
                w_better, w_not_worse = _improvement(inst, w, m, held_by_woman.get(w))
                if criterion == SUPER:
                    if m_not_worse and w_not_worse:
                        return True
                else:
                    if (m_better and w_not_worse) or (w_better and m_not_worse):
                        return True
    return False


def _improvement(inst, agent, candidate, incumbent):
    """(strictly better, not worse) for swapping ``incumbent`` for ``candidate``.

    Found by scanning the agent's tiers top-down; an unmatched agent treats
    any listed partner as a strict improvement.
    """
    if incumbent is None:
        return True, True
    for tier in inst.prefs[agent]:
        cand_here = candidate in tier
        incum_here = incumbent in tier
        if cand_here and incum_here:
            return False, True
        if cand_here:
            return True, True
        if incum_here:
            return False, False
    raise ValueError(f"{candidate!r} or {incumbent!r} missing from {agent!r}'s list")
