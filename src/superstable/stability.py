"""Matching validation, blocking-edge tests and the side-optimal solver."""

from __future__ import annotations

from collections import deque
from math import inf

from .instance import Instance, MEN, WOMEN

SUPER = "super"
STRONG = "strong"


class NoSuperStableMatching(ValueError):
    """Raised by operations that require the instance to admit a super-stable matching."""


def validate_matching(inst: Instance, pairs) -> frozenset:
    """Normalize ``pairs`` to a frozenset and check it is a matching of ``inst``.

    A frozenset whose members are all exact 2-tuples comes back as given,
    the same object; any other iterable of pairs gives a new frozenset.
    """
    return _indexed(inst, pairs)[0]


def _indexed(inst: Instance, pairs):
    """(matching, mate_of_man, mate_of_woman): ``pairs`` validated as by
    ``validate_matching``, with each agent's partner index, -1 if unmatched."""
    if (
        type(pairs) is frozenset
        and set(map(type, pairs)) <= {tuple}
        and set(map(len, pairs)) <= {2}
    ):
        try:
            return _mates(inst, pairs)
        except ValueError:
            pass  # name the offender that the rebuilt set meets first
    return _mates(inst, frozenset((m, w) for m, w in pairs))


def _mates(inst: Instance, matching: frozenset):
    """``_indexed`` on a frozenset of 2-tuples, checked in its own order."""
    mate_of_man = [-1] * len(inst.men)
    mate_of_woman = [-1] * len(inst.women)
    for m, w in matching:
        i, j = inst._midx.get(m), inst._widx.get(w)
        if i is None or j is None or j not in inst._man_rank[i]:
            raise ValueError(f"({m!r}, {w!r}) is not an edge of the instance")
        if mate_of_man[i] >= 0:
            raise ValueError(f"agent {m!r} appears in two pairs")
        if mate_of_woman[j] >= 0:
            raise ValueError(f"agent {w!r} appears in two pairs")
        mate_of_man[i] = j
        mate_of_woman[j] = i
    return matching, mate_of_man, mate_of_woman


def blocking_edges(inst: Instance, matching, criterion: str = SUPER) -> frozenset:
    """Edges outside ``matching`` that block it under ``criterion``.

    Super: neither endpoint would become worse off by matching together.
    Strong: one endpoint becomes strictly better off and the other not worse.
    An unmatched agent counts any listed partner as a strict improvement.
    The matching is super-stable (resp. strongly stable) iff the result is
    empty.

    Under both criteria a blocking edge leaves its man no worse off, so each
    man's list is walked in preference order only down to his partner's
    tier: a prefix walk per man, O(|E|) at worst.
    """
    if criterion not in (SUPER, STRONG):
        raise ValueError(f"unknown criterion {criterion!r}")
    return _blocking(inst, _indexed(inst, matching), criterion == STRONG)


def _blocking(inst: Instance, indexed, strong: bool = False) -> frozenset:
    """``blocking_edges`` on an ``_indexed`` matching."""
    _, mate_of_man, mate_of_woman = indexed
    men, women = inst.men, inst.women
    return frozenset(
        (men[i], women[j])
        for i, j, he_gains, she_gains in _blockers(inst, mate_of_man, mate_of_woman)
        # a strong blocker needs a strict gain at one end
        if not strong or he_gains or she_gains
    )


def _blockers(inst: Instance, mate_of_man, mate_of_woman):
    """The one blocking walk: yields (i, j, he_gains, she_gains) for each
    edge that blocks the matching in the super sense (neither end worse
    off), in ``inst.edges`` order; each flag says whether that end gains
    strictly.  A blocker never leaves its man worse off, so each man's list
    is walked only down to his partner's tier."""
    woman_rank = inst._woman_rank
    for i, ranks in enumerate(inst._man_rank):
        held = mate_of_man[i]
        cutoff = ranks[held] if held >= 0 else inf
        for j, r in ranks.items():
            if r > cutoff:
                break
            if j == held:
                continue
            rival = mate_of_woman[j]
            if rival < 0:
                yield i, j, r < cutoff, True
                continue
            r_new, r_old = woman_rank[j][i], woman_rank[j][rival]
            if r_new <= r_old:
                yield i, j, r < cutoff, r_new < r_old


def optimal_super_stable(inst: Instance, side: str = MEN):
    """The side-optimal super-stable matching, or None if there is none.

    For ``side="men"`` the result weakly improves on every super-stable
    matching from the men's viewpoint, for ``side="women"`` from the
    women's; the chosen side proposes.  None is a valid answer, not an
    error.  The final ``blocking_edges`` call is the algorithm's NONE rule
    (Irving 1994): it rejects the proposal phase's matching exactly when a
    receiver that was ever engaged ends up free.
    """
    if side not in (MEN, WOMEN):
        raise ValueError(f"unknown side {side!r}")
    candidate = _propose_and_delete(inst, side)
    if candidate is None:
        return None
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

    Every deletion cuts a suffix of the receiver's list, so the live pairs
    are read off the lists: ``bottom[r]`` is the worst rank r still accepts,
    and a pair lives while the proposer's rank there is within it.  Each
    proposer's ``head`` is its first tier with a live pair.  A proposer is
    queued only while it holds no engagement.
    """
    if side == MEN:
        prop_tiers, recv_tiers, recv_rank = inst._man_tiers, inst._woman_tiers, inst._woman_rank
    else:
        prop_tiers, recv_tiers, recv_rank = inst._woman_tiers, inst._man_tiers, inst._man_rank
    n_prop, n_recv = len(prop_tiers), len(recv_tiers)
    head = [0] * n_prop
    bottom = [len(t) for t in recv_tiers]
    eng_p: list[set[int]] = [set() for _ in range(n_prop)]
    eng_r: list[set[int]] = [set() for _ in range(n_recv)]
    queue = deque(range(n_prop))

    def cut(r: int, rank: int) -> None:
        """Delete r's tiers from ``rank`` down, in list order."""
        for tier in recv_tiers[r][rank - 1 : bottom[r]]:
            for p in tier:
                if p in eng_r[r]:
                    eng_r[r].discard(p)
                    eng_p[p].discard(r)
                    if not eng_p[p]:
                        queue.append(p)
        bottom[r] = rank - 1

    while True:
        while queue:
            p = queue.popleft()
            tiers = prop_tiers[p]
            while head[p] < len(tiers):
                live = [r for r in tiers[head[p]] if recv_rank[r][p] <= bottom[r]]
                if live:
                    break
                head[p] += 1
            else:
                continue
            for r in live:
                eng_p[p].add(r)
                eng_r[r].add(p)
                # drop everything r likes strictly less than p
                rank = recv_rank[r][p]
                if bottom[r] > rank:
                    cut(r, rank + 1)
        resolved = True
        for r in range(n_recv):
            if len(eng_r[r]) < 2:
                continue
            resolved = False
            # tied engagements fill r's bottom tier, so one cut deletes it
            if any(recv_rank[r][p] != bottom[r] for p in eng_r[r]):
                raise RuntimeError("engagements off the receiver's bottom tier (internal error)")
            cut(r, bottom[r])
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


def matching_to_json(inst: Instance, matching) -> dict:
    """JSON form: {"pairs": [...], "matched": n}, the pairs in the men's
    declaration order; None renders as {"pairs": null}."""
    if matching is None:
        return {"pairs": None}
    mate_of_man = _indexed(inst, matching)[1]
    women = inst.women
    pairs = [[m, women[j]] for m, j in zip(inst.men, mate_of_man) if j >= 0]
    return {"pairs": pairs, "matched": len(pairs)}
