"""Blocking-edge tests, the side-optimal super-stable solver, and dominance."""

from __future__ import annotations

from collections import deque

from .instance import Instance, MEN, WOMEN

SUPER = "super"
STRONG = "strong"


class NoSuperStableMatching(ValueError):
    """Raised by operations that require the instance to admit a super-stable matching."""


def validate_matching(inst: Instance, pairs) -> frozenset:
    """Normalize ``pairs`` to a frozenset and check it is a matching of ``inst``."""
    matching = frozenset((m, w) for m, w in pairs)
    seen: set[str] = set()
    for m, w in matching:
        if not inst.is_edge(m, w):
            raise ValueError(f"({m!r}, {w!r}) is not an edge of the instance")
        if m in seen:
            raise ValueError(f"agent {m!r} appears in two pairs")
        if w in seen:
            raise ValueError(f"agent {w!r} appears in two pairs")
        seen.add(m)
        seen.add(w)
    return matching


def partner_maps(matching) -> tuple[dict, dict]:
    by_man = {}
    by_woman = {}
    for m, w in matching:
        by_man[m] = w
        by_woman[w] = m
    return by_man, by_woman


def blocking_edges(inst: Instance, matching, criterion: str = SUPER) -> frozenset:
    """Edges outside ``matching`` that block it under ``criterion``.

    Super: neither endpoint would become worse off by matching together.
    Strong: one endpoint becomes strictly better off and the other not worse.
    An unmatched agent counts any listed partner as a strict improvement.
    The matching is super-stable (resp. strongly stable) iff the result is
    empty.
    """
    if criterion not in (SUPER, STRONG):
        raise ValueError(f"unknown criterion {criterion!r}")
    matching = validate_matching(inst, matching)
    by_man, by_woman = partner_maps(matching)
    blockers = []
    for m, w in inst.edges:
        if by_man.get(m) == w:
            continue
        held_m = by_man.get(m)
        held_w = by_woman.get(w)
        if held_m is None:
            m_better = m_not_worse = True
        else:
            r_new, r_old = inst.man_rank(m, w), inst.man_rank(m, held_m)
            m_better, m_not_worse = r_new < r_old, r_new <= r_old
        if held_w is None:
            w_better = w_not_worse = True
        else:
            r_new, r_old = inst.woman_rank(w, m), inst.woman_rank(w, held_w)
            w_better, w_not_worse = r_new < r_old, r_new <= r_old
        if criterion == SUPER:
            if m_not_worse and w_not_worse:
                blockers.append((m, w))
        else:
            if (m_better and w_not_worse) or (w_better and m_not_worse):
                blockers.append((m, w))
    return frozenset(blockers)


def is_super_stable(inst: Instance, matching) -> bool:
    return not blocking_edges(inst, matching, SUPER)


def optimal_super_stable(inst: Instance, side: str = MEN):
    """The side-optimal super-stable matching, or None if there is none.

    For ``side="men"`` the result weakly improves on every super-stable
    matching from the men's viewpoint, for ``side="women"`` from the
    women's; the chosen side proposes.  None is a valid answer, not an
    error.
    """
    if side not in (MEN, WOMEN):
        raise ValueError(f"unknown side {side!r}")
    candidate = _propose_and_delete(inst, side)
    if candidate is None:
        return None
    # belt and braces: re-verify against the original instance
    if blocking_edges(inst, candidate, SUPER):
        return None
    return candidate


def _propose_and_delete(inst: Instance, side: str):
    """Extended proposal/deletion rounds; returns the engagement matching or None.

    Agents of ``side`` propose to their entire head tier.  A proposed-to
    agent deletes all pairs strictly worse than the proposer; one left
    holding proposals from tied agents has that whole tie tier deleted.
    Runs until proposals stabilize, then the engagements must form a
    matching, returned as (man, woman) pairs.
    """
    if side == MEN:
        prop_tiers, recv_tiers = inst._man_tiers, inst._woman_tiers
        prop_rank, recv_rank = inst._man_rank, inst._woman_rank
    else:
        prop_tiers, recv_tiers = inst._woman_tiers, inst._man_tiers
        prop_rank, recv_rank = inst._woman_rank, inst._man_rank
    n_prop, n_recv = len(prop_tiers), len(recv_tiers)
    alive_p = [set(r) for r in prop_rank]
    alive_r = [set(r) for r in recv_rank]
    head = [0] * n_prop
    bottom = [len(t) - 1 for t in recv_tiers]
    eng_p: list[set[int]] = [set() for _ in range(n_prop)]
    eng_r: list[set[int]] = [set() for _ in range(n_recv)]
    queue = deque(range(n_prop))

    def delete_pair(p: int, r: int) -> None:
        alive_p[p].discard(r)
        alive_r[r].discard(p)
        if r in eng_p[p]:
            eng_p[p].discard(r)
            eng_r[r].discard(p)
            if not eng_p[p]:
                queue.append(p)

    def delete_tier(r: int, tier_index: int) -> None:
        for p in list(recv_tiers[r][tier_index]):
            if p in alive_r[r]:
                delete_pair(p, r)

    while True:
        while queue:
            p = queue.popleft()
            if eng_p[p]:
                continue
            while head[p] < len(prop_tiers[p]):
                if any(r in alive_p[p] for r in prop_tiers[p][head[p]]):
                    break
                head[p] += 1
            else:
                continue
            for r in prop_tiers[p][head[p]]:
                if r not in alive_p[p]:
                    continue
                eng_p[p].add(r)
                eng_r[r].add(p)
                rank = recv_rank[r][p]
                # drop everything r likes strictly less than p
                # (0-based tier index >= rank means 1-based rank > rank)
                while bottom[r] >= rank:
                    delete_tier(r, bottom[r])
                    bottom[r] -= 1
                while bottom[r] >= 0 and not any(
                    x in alive_r[r] for x in recv_tiers[r][bottom[r]]
                ):
                    bottom[r] -= 1
        resolved = True
        for r in range(n_recv):
            if len(eng_r[r]) < 2:
                continue
            resolved = False
            ranks = {recv_rank[r][p] for p in eng_r[r]}
            if len(ranks) != 1:
                raise RuntimeError("engagements of one agent are not tied (internal error)")
            delete_tier(r, ranks.pop() - 1)
            while bottom[r] >= 0 and not any(
                x in alive_r[r] for x in recv_tiers[r][bottom[r]]
            ):
                bottom[r] -= 1
        if resolved:
            break

    proposers, receivers = (inst.men, inst.women) if side == MEN else (inst.women, inst.men)
    pairs = []
    for p in range(n_prop):
        if len(eng_p[p]) > 1:
            return None
        if eng_p[p]:
            pair = (proposers[p], receivers[next(iter(eng_p[p]))])
            pairs.append(pair if side == MEN else pair[::-1])
    return frozenset(pairs)


def dominates(inst: Instance, first, second) -> bool:
    """True iff every man weakly prefers his partner in ``first`` to ``second``.

    Both inputs must be super-stable; they then match the same agents, so the
    comparison is total on matched men.
    """
    first = validate_matching(inst, first)
    second = validate_matching(inst, second)
    for matching in (first, second):
        if blocking_edges(inst, matching, SUPER):
            raise ValueError("dominance is defined on super-stable matchings only")
    by_man_1, _ = partner_maps(first)
    by_man_2, _ = partner_maps(second)
    if set(by_man_1) != set(by_man_2):
        raise RuntimeError("super-stable matchings must match the same set of men")
    return all(
        inst.man_rank(m, by_man_1[m]) <= inst.man_rank(m, by_man_2[m]) for m in by_man_1
    )


def matching_to_json(inst: Instance, matching) -> dict:
    """JSON form: {"pairs": [...], "matched": n}; None renders as {"pairs": null}."""
    if matching is None:
        return {"pairs": None}
    matching = validate_matching(inst, matching)
    order = {m: i for i, m in enumerate(inst.men)}
    pairs = sorted(matching, key=lambda p: order[p[0]])
    return {"pairs": [[m, w] for m, w in pairs], "matched": len(pairs)}
