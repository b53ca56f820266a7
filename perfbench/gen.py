"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and returns instance *text*
plus the exact answers the benchmark checks against.  The library only ever
receives the text; expected answers come from ``superstable.oracle`` (brute
force over small blocks) or from arithmetic on the generated data, never
from the fast code paths being timed.

Shapes are held fixed across seeds where the cost of an operation depends
on them (block lattice sizes, the number of distinct polytope constraints),
so that a seed changes the preferences but not the amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from superstable import Instance, optimal_super_stable
from superstable.oracle import brute_stable_set

MAX_ATTEMPTS = 200_000  # guards every rejection-sampling loop below
BLOCK_SIZE = 5  # agents per side; 5 x 5 at density 0.8 stays in the oracle's reach


@dataclass
class Block:
    """A small tied block whose super-stable set is known by brute force."""

    men: list
    women: list
    prefs: dict
    stable: list  # every super-stable matching, from the oracle
    man_optimal: frozenset
    woman_optimal: frozenset


@dataclass
class Union:
    """A disjoint union of blocks, as text, with weights and exact answers."""

    text: str
    weights_text: str
    weights: dict
    edges: int
    man_optimal: frozenset
    woman_optimal: frozenset
    max_weight: int
    rotations: int
    arcs: int
    blocks: list = field(repr=False)


@dataclass
class Tiny:
    """A desk-scale instance with its brute-force super-stable answers."""

    text: str
    man_optimal: frozenset | None
    woman_optimal: frozenset | None
    super_stable: list


def instance_text(men, women, prefs) -> str:
    """The documented text format; ``prefs`` maps name -> list of tiers."""
    lines = ["men: " + " ".join(men), "women: " + " ".join(women)]
    for name in list(men) + list(women):
        tiers = prefs.get(name)
        if tiers:
            lines.append(
                name
                + ": "
                + " ".join(t[0] if len(t) == 1 else "(" + " ".join(t) + ")" for t in tiers)
            )
    return "\n".join(lines) + "\n"


def random_lists(rng, men, women, density, tie_prob) -> dict:
    """Random mutual lists: each pair is an edge with probability ``density``;
    adjacent entries of a shuffled list share a tier with ``tie_prob``."""
    adj = {name: [] for name in list(men) + list(women)}
    for m in men:
        for w in women:
            if rng.random() < density:
                adj[m].append(w)
                adj[w].append(m)
    prefs = {}
    for name, partners in adj.items():
        rng.shuffle(partners)
        tiers: list[list[str]] = []
        for i, p in enumerate(partners):
            if i and rng.random() < tie_prob:
                tiers[-1].append(p)
            else:
                tiers.append([p])
        prefs[name] = tiers
    return prefs


def edges_of(men, prefs) -> list:
    return [(m, w) for m in men for tier in prefs[m] for w in tier]


def weights_text(rng, edges):
    """Seeded integer weights in [-5, 9] on every edge, as a weights file and
    a dict; negative weights make the min-cut choose, not take everything."""
    weights = {e: rng.randint(-5, 9) for e in edges}
    return "".join(f"{m} {w} {v}\n" for (m, w), v in weights.items()), weights


def ranks(prefs) -> dict:
    """(agent, partner) -> 1-based tier index."""
    return {
        (name, p): t + 1
        for name, tiers in prefs.items()
        for t, tier in enumerate(tiers)
        for p in tier
    }


def side_optimal(stable, rank, flip=False):
    """The member of ``stable`` every man (every woman with ``flip``) weakly
    prefers to all the others, or None when ``stable`` is empty."""
    def partner_ranks(matching):
        return {
            (w if flip else m): rank[(w, m) if flip else (m, w)] for m, w in matching
        }

    table = [(matching, partner_ranks(matching)) for matching in stable]
    for matching, mine in table:
        if all(mine[a] <= other[a] for _, other in table for a in mine):
            return matching
    return None


# -- workload inputs -----------------------------------------------------------


def strict_instance(seed: int, n: int, density: float, walk: int | None = None):
    """One strict random instance (text, weights text, weights, edge count).

    With ``walk`` set, candidates are drawn until the chain's walk length
    lies within 5% of it; the cost of the chain search follows that length
    closely and otherwise varies about twofold between seeds.
    """
    rng = random.Random(seed)
    men = [f"m{i}" for i in range(1, n + 1)]
    women = [f"w{j}" for j in range(1, n + 1)]
    for _ in range(MAX_ATTEMPTS):
        prefs = random_lists(rng, men, women, density, 0.0)
        if walk is None or abs(walk_length(men, women, prefs) - walk) <= 0.05 * walk:
            break
    else:
        raise RuntimeError("strict instance generator gave up")
    edges = edges_of(men, prefs)
    wtext, weights = weights_text(rng, edges)
    return instance_text(men, women, prefs), wtext, weights, len(edges)


def walk_length(men, women, prefs) -> int:
    """How far the men slide from the man-optimal to the woman-optimal stable
    matching: the sum over men of the gap between the two partners' ranks.
    Both matchings come from deferred acceptance on these strict lists."""
    rank = ranks(prefs)
    top = _deferred_acceptance(men, prefs, rank)
    bottom = {m: w for w, m in _deferred_acceptance(women, prefs, rank).items()}
    return sum(rank[(m, bottom[m])] - rank[(m, top[m])] for m in bottom)


def _deferred_acceptance(proposers, prefs, rank) -> dict:
    """Proposer-optimal stable matching of strict lists, proposer -> partner."""
    nxt = dict.fromkeys(proposers, 0)
    held: dict = {}
    free = list(proposers)
    while free:
        p = free.pop()
        if nxt[p] == len(prefs[p]):
            continue
        (r,) = prefs[p][nxt[p]]
        nxt[p] += 1
        rival = held.get(r)
        if rival is None or rank[(r, p)] < rank[(r, rival)]:
            held[r] = p
            if rival is not None:
                free.append(rival)
        else:
            free.append(p)
    return {p: r for r, p in held.items()}


def block(rng, tag: str, lattice_size: int) -> Block:
    """A tied block with exactly ``lattice_size`` super-stable
    matchings (2 gives one rotation, 3 a chain of two rotations and one arc).

    The library's side-optimal solves only reject candidates early; every
    kept block is confirmed by the oracle.
    """
    men = [f"m{tag}_{i}" for i in range(BLOCK_SIZE)]
    women = [f"w{tag}_{i}" for i in range(BLOCK_SIZE)]
    for _ in range(MAX_ATTEMPTS):
        prefs = random_lists(rng, men, women, 0.8, 0.25)
        if len(edges_of(men, prefs)) > 24:  # the oracle's enumeration guard
            continue
        inst = Instance(men, women, prefs)
        top = optimal_super_stable(inst, "men")
        if top is None or top == optimal_super_stable(inst, "women"):
            continue
        stable = brute_stable_set(inst)
        if len(stable) != lattice_size:
            continue
        rank = ranks(prefs)
        return Block(
            men,
            women,
            prefs,
            stable,
            side_optimal(stable, rank),
            side_optimal(stable, rank, flip=True),
        )
    raise RuntimeError("block generator gave up")


def block_union(seed: int, pairs: int, chains: int) -> Union:
    """``pairs`` blocks with two super-stable matchings and ``chains`` with
    three, so every seed gives the same lattice shape: 2^pairs * 3^chains
    matchings, pairs + 2 * chains rotations, ``chains`` precedence arcs."""
    rng = random.Random(seed)
    blocks = [block(rng, f"{b}", 3 if b < chains else 2) for b in range(pairs + chains)]
    rng.shuffle(blocks)
    men = [m for b in blocks for m in b.men]
    women = [w for b in blocks for w in b.women]
    prefs = {k: v for b in blocks for k, v in b.prefs.items()}
    edges = edges_of(men, prefs)
    wtext, weights = weights_text(rng, edges)
    best = sum(
        max(sum(weights[e] for e in matching) for matching in b.stable) for b in blocks
    )
    return Union(
        text=instance_text(men, women, prefs),
        weights_text=wtext,
        weights=weights,
        edges=len(edges),
        man_optimal=frozenset().union(*(b.man_optimal for b in blocks)),
        woman_optimal=frozenset().union(*(b.woman_optimal for b in blocks)),
        max_weight=best,
        rotations=pairs + 2 * chains,
        arcs=chains,
        blocks=blocks,
    )


def tiny_instances(seed: int, count: int) -> list[Tiny]:
    """``count`` tied instances with n = 4, 5, 6 per side in turn; many admit
    no super-stable matching, so the solvers' NONE path runs too."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = 4 + len(out) % 3
        men = [f"m{i}" for i in range(n)]
        women = [f"w{i}" for i in range(n)]
        prefs = random_lists(rng, men, women, 0.5, 0.3)
        if len(edges_of(men, prefs)) > 24:
            continue
        out.append(_tiny(men, women, prefs))
    return out


def vertex_instances(seed: int, count: int) -> list[Tiny]:
    """3-per-side tied instances with exactly six edges and at least one
    super-stable matching, whose super system has 15 distinct constraints
    and strong system 16.

    Basis enumeration costs roughly C(constraints, |E|), which varies
    several-fold between random six-edge instances; fixing both counts keeps
    the vertex work the same for every seed.
    """
    rng = random.Random(seed)
    men, women = ["m0", "m1", "m2"], ["w0", "w1", "w2"]
    out = []
    for _ in range(MAX_ATTEMPTS):
        if len(out) == count:
            return out
        prefs = random_lists(rng, men, women, 0.7, 0.3)
        edges = edges_of(men, prefs)
        if len(edges) != 6:
            continue
        if constraint_count(men, women, prefs, strong=False) != 15:
            continue
        if constraint_count(men, women, prefs, strong=True) != 16:
            continue
        tiny = _tiny(men, women, prefs)
        if tiny.super_stable:
            out.append(tiny)
    raise RuntimeError("vertex instance generator gave up")


def constraint_count(men, women, prefs, strong: bool) -> int:
    """Distinct (support, right-hand side) rows of the polytope's system:
    vertex rows, the edge rows of the chosen model, and nonnegativity."""
    edges = edges_of(men, prefs)
    rank = ranks(prefs)
    rows = set()
    for name in list(men) + list(women):
        support = frozenset(e for e in edges if name in e)
        if support:
            rows.add((support, 1))
    for m, w in edges:
        better = frozenset(
            e for e in edges
            if (e[0] == m and rank[(m, e[1])] < rank[(m, w)])
            or (e[1] == w and rank[(w, e[0])] < rank[(w, m)])
        )
        if strong:
            rows.add((better | {e for e in edges if e[0] == m and rank[(m, e[1])] == rank[(m, w)]}, 1))
            rows.add((better | {e for e in edges if e[1] == w and rank[(w, e[0])] == rank[(w, m)]}, 1))
        else:
            rows.add((better | {(m, w)}, 1))
    rows.update((frozenset([e]), 0) for e in edges)
    return len(rows)


def _tiny(men, women, prefs) -> Tiny:
    inst = Instance(men, women, prefs)
    stable = brute_stable_set(inst)
    rank = ranks(prefs)
    return Tiny(
        text=instance_text(men, women, prefs),
        man_optimal=side_optimal(stable, rank),
        woman_optimal=side_optimal(stable, rank, flip=True),
        super_stable=stable,
    )
