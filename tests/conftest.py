import random
import re
from collections import deque
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import strategies as st

from superstable import (
    MEN,
    WOMEN,
    STRONG,
    SUPER,
    DualCertificate,
    Instance,
    ParseError,
    Violation,
    blocking_edges,
    dominates,
    optimal_super_stable,
    parse_instance,
    random_instance,
    reduce_for_edge,
    validate_matching,
)
from superstable.stability import _blocking, _indexed

I1_TEXT = """\
# strict 2x2
men: a b
women: x y
a: x y
b: y x
x: b a
y: a b
"""

I2_TEXT = """\
# one woman, tied between two men: infeasible
men: a b
women: x
a: x
b: x
x: (a b)
"""

I3_TEXT = """\
# tie on a's list, unique super-stable matching
men: a b
women: x y
a: (x y)
b: y
x: a
y: b a
"""

# lattice is a 3-chain; rotations 0 and 1 with 0 preceding 1
CHAIN3_TEXT = """\
men: a b c
women: x y z
a: x y
b: y x z
c: z x
x: c b a
y: a b
z: b c
"""

# six one-sided listings on the men's lists and three on the women's; the
# first in declaration order is a's listing of z
NON_MUTUAL_TEXT = """\
men: a b c
women: x y z
a: z y x
b: x z
c: y
x: a c
y: b a
z: c
"""


# strict men, heavily tied women.  Like random_instance(10, 10, 1.0, 0.2,
# seed=505501404), it defeats a chain search in which a woman giving up a
# tied rank blocks that rank alone: a man she ranks between it and her
# partner then takes her while the tied men fall below her, and they
# block the chain's matching ((m3, w5) and (m5, w5) here, (m2, w1) and
# (m9, w1) there), which precedence_digraph then rejects
TIER_DELETION_TEXT = """\
men: m0 m1 m2 m3 m4 m5 m6 m7
women: w0 w1 w2 w3 w4 w5 w6 w7
m0: w7 w4 w6 w5 w2 w0 w3 w1
m1: w4 w7 w5 w1 w3 w0 w2 w6
m2: w4 w1 w2 w7 w3 w0 w5 w6
m3: w2 w7 w5 w1 w3 w4 w0 w6
m4: w5 w4 w2 w6 w0 w7 w3 w1
m5: w6 w5 w4 w3 w7 w2 w0 w1
m6: w3 w4 w1 w6 w2 w0 w7 w5
m7: w0 w3 w7 w4 w2 w1 w5 w6
w0: m3 (m0 m5) m2 m7 m4 m1 m6
w1: m7 m3 (m1 m4) m5 m0 (m6 m2)
w2: m5 m4 m3 (m0 m2 m6) m1 m7
w3: m0 m5 (m1 m2 m6 m7) m3 m4
w4: m1 (m6 m5 m4) m2 m7 m0 m3
w5: m2 (m3 m5) m0 (m7 m6) m4 m1
w6: m2 (m1 m7 m6) (m4 m0) m5 m3
w7: m5 (m7 m1) (m3 m0) m2 m4 m6
"""

# the first ten seeds at which random_instance(5, 5, 1.0, 0.3, seed) fires a
# drop; each such block has one rotation and two super-stable matchings
DROP_SEEDS = (4270, 15209, 117869, 137088, 141401, 193752, 222368, 227063, 238435, 264847)


@pytest.fixture(scope="session")
def i1():
    return parse_instance(I1_TEXT)


@pytest.fixture(scope="session")
def i2():
    return parse_instance(I2_TEXT)


@pytest.fixture(scope="session")
def i3():
    return parse_instance(I3_TEXT)


@pytest.fixture(scope="session")
def chain3():
    return parse_instance(CHAIN3_TEXT)


def man_optimal_of(inst, stable):
    """Dominance maximum of an enumerated super-stable set, or None."""
    for m in stable:
        if all(dominates(inst, m, other) for other in stable):
            return m
    return None


def per_edge_optimum(inst, edge):
    """Man-optimal super-stable matching through ``edge`` by the paper's edge
    reduction, independent of the rotation poset: solve the reduced instance
    and re-attach the edge; a blocked result means no super-stable matching
    contains the edge."""
    inner = optimal_super_stable(reduce_for_edge(inst, edge), MEN)
    if inner is None:
        return None
    candidate = inner | {tuple(edge)}
    return None if blocking_edges(inst, candidate, SUPER) else candidate


def swap_sides(inst):
    """The same instance with the two sides exchanged: solving it for the men
    is the woman-side reference, independent of the woman-side proposals."""
    return Instance(inst.women, inst.men, inst.prefs)


def transpose_pairs(pairs):
    """Flip (man, woman) pairs into the swapped-sides orientation."""
    return frozenset((b, a) for a, b in pairs)


def block_union(seed, n, tie_prob):
    """Disjoint union of feasible complete random 5 x 5 blocks, n agents a
    side: rotations of different blocks are unordered, so the rotation poset
    is far from a chain, which random instances rarely are."""
    blocks = []
    while 5 * len(blocks) < n:
        seed += 1
        block = random_instance(5, 5, 1.0, tie_prob, seed=seed)
        if optimal_super_stable(block) is not None:
            blocks.append(block)
    return union_of(blocks)


def union_of(blocks):
    """Disjoint union of instances; block b's agents carry the suffix _b."""
    men, women, prefs = [], [], {}
    for b, block in enumerate(blocks):
        tag = f"_{b}"
        men += [m + tag for m in block.men]
        women += [w + tag for w in block.women]
        for agent, tiers in block.prefs.items():
            prefs[agent + tag] = [[p + tag for p in tier] for tier in tiers]
    return Instance(men, women, prefs)


def drop_union(copies=1, mixed=False):
    """``copies`` copies of the ten ``DROP_SEEDS`` blocks in one union (n = 50
    per copy), each block firing one drop; ``mixed`` adds both pinned
    counterexamples (n = 68 for one copy)."""
    blocks = [random_instance(5, 5, 1.0, 0.3, seed=seed) for seed in DROP_SEEDS] * copies
    if mixed:
        blocks += [
            random_instance(10, 10, 1.0, 0.2, seed=505501404),
            parse_instance(TIER_DELETION_TEXT),
        ]
    return union_of(blocks)


def cyclic_shift(n):
    """Latin-square preferences: man i ranks w_i, w_i+1, ... and woman j ranks
    m_j+1, m_j+2, ... (indices mod n).  Matching k pairs m_i with w_i+k, so
    the lattice is one chain of n - 1 rotations, each moving every man."""
    men = [f"m{i}" for i in range(n)]
    women = [f"w{j}" for j in range(n)]
    prefs = {m: [[women[(i + k) % n]] for k in range(n)] for i, m in enumerate(men)}
    prefs.update({w: [[men[(j + 1 + k) % n]] for k in range(n)] for j, w in enumerate(women)})
    return Instance(men, women, prefs)


@st.composite
def tied_halves(draw, tie_prob=0.1):
    """Two complete halves of 2-3 men and women each, a few edges across,
    and random tied lists: the halves' rotations are unordered, a poset
    shape that random instances this small rarely have."""
    sizes = [draw(st.sampled_from((3, 2))) for _ in range(2)]
    men = [f"m{h}{i}" for h, k in enumerate(sizes) for i in range(k)]
    women = [f"w{h}{i}" for h, k in enumerate(sizes) for i in range(k)]
    pairs = [(m, w) for m in men for w in women]
    edges = [(m, w) for m, w in pairs if m[1] == w[1]]
    across = [(m, w) for m, w in pairs if m[1] != w[1]]
    edges += draw(st.lists(st.sampled_from(across), unique=True, max_size=3))
    # orders drawn element by element lean to sorted lists, whose instances
    # have a single super-stable matching; a drawn seed keeps them random
    rng = random.Random(draw(st.integers(0, 2**32)))
    prefs = {}
    for agent in men + women:
        listed = [w if agent == m else m for m, w in edges if agent in (m, w)]
        rng.shuffle(listed)
        tiers = []
        for partner in listed:
            if tiers and rng.random() < tie_prob:
                tiers[-1].append(partner)
            else:
                tiers.append([partner])
        prefs[agent] = tiers
    return Instance(men, women, prefs)


def oracle_chain(inst, stable):
    """A maximal chain built only from the enumerated set, with a tie-break
    deliberately different from the production algorithm."""
    current = man_optimal_of(inst, stable)
    chain = [current]
    while True:
        below = [m for m in stable if m != current and dominates(inst, current, m)]
        if not below:
            return chain
        immediate = [
            m
            for m in below
            if not any(
                n != m and dominates(inst, current, n) and dominates(inst, n, m)
                for n in below
            )
        ]
        current = sorted(immediate, key=sorted)[-1]
        chain.append(current)


# -- by-name references for the index-space verification kernels -------------
# These are the package's earlier per-edge implementations, which look every
# rank up by agent name and sum each tier member by member.  Tests compare
# ``blocking_edges``, ``check_point`` and ``self_dual`` with them.


def blocking_edges_by_name(inst, matching, criterion=SUPER):
    """Every edge of ``inst.edges`` tested against both endpoints' ranks."""
    if criterion not in (SUPER, STRONG):
        raise ValueError(f"unknown criterion {criterion!r}")
    matching = validate_matching(inst, matching)
    by_man = dict(matching)
    by_woman = {w: m for m, w in matching}
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


def _validated_by_name(inst, point):
    for m, w in point:
        if not inst.is_edge(m, w):
            raise ValueError(f"point key ({m!r}, {w!r}) is not an edge")
    return dict(point)


def _tier_sums_by_name(inst, x):
    """Per agent: (per-tier sums, strict-prefix sums); prefix[r-1] covers all
    tiers strictly better than rank r, prefix[-1] is the vertex total."""
    tier_sums = {}
    prefix_sums = {}
    for name in inst.men + inst.women:
        if name in inst._midx:
            sums = [sum(x.get((name, w), 0) for w in tier) for tier in inst.prefs[name]]
        else:
            sums = [sum(x.get((m, name), 0) for m in tier) for tier in inst.prefs[name]]
        prefix = [0]
        for s in sums:
            prefix.append(prefix[-1] + s)
        tier_sums[name] = sums
        prefix_sums[name] = prefix
    return tier_sums, prefix_sums


def check_point_by_name(inst, point, model=SUPER):
    """Every constraint of the chosen system evaluated in ``Fraction``s."""
    if model not in (SUPER, STRONG):
        raise ValueError(f"unknown model {model!r}")
    x = _validated_by_name(inst, point)
    tier_sums, prefix = _tier_sums_by_name(inst, x)
    report = []
    vertex_tag = "1a" if model == SUPER else "3a"
    nonneg_tag = "1c" if model == SUPER else "3d"
    for name in inst.men + inst.women:
        total = prefix[name][-1]
        if total > 1:
            report.append(Violation(vertex_tag, name, Fraction(total), "<= 1"))
    for m, w in inst.edges:
        rm = inst.man_rank(m, w)
        rw = inst.woman_rank(w, m)
        better = prefix[m][rm - 1] + prefix[w][rw - 1]
        if model == SUPER:
            lhs = better + x.get((m, w), 0)
            if lhs < 1:
                report.append(Violation("1b", (m, w), Fraction(lhs), ">= 1"))
        else:
            lhs = better + tier_sums[m][rm - 1]
            if lhs < 1:
                report.append(Violation("3b", (m, w), Fraction(lhs), ">= 1"))
            lhs = better + tier_sums[w][rw - 1]
            if lhs < 1:
                report.append(Violation("3c", (m, w), Fraction(lhs), ">= 1"))
    for edge in inst.edges:
        value = x.get(edge, 0)
        if value < 0:
            report.append(Violation(nonneg_tag, edge, Fraction(value), ">= 0"))
    return report


def self_dual_by_name(inst, point):
    """The dual certificate with every dual constraint checked in ``Fraction``s."""
    if check_point_by_name(inst, point, SUPER):
        raise ValueError("point is not feasible for the super-stable system")
    x = _validated_by_name(inst, point)
    tier_sums, prefix = _tier_sums_by_name(inst, x)
    alpha = {name: Fraction(prefix[name][-1]) for name in inst.men + inst.women}
    for m, w in inst.edges:
        rm = inst.man_rank(m, w)
        rw = inst.woman_rank(w, m)
        worse_m = alpha[m] - prefix[m][rm - 1] - tier_sums[m][rm - 1]
        worse_w = alpha[w] - prefix[w][rw - 1] - tier_sums[w][rw - 1]
        lhs = alpha[m] + alpha[w] - worse_m - worse_w - x.get((m, w), 0)
        if lhs < 1:
            raise RuntimeError(f"dual constraint failed at ({m}, {w}): {lhs} < 1")
    primal = Fraction(sum(x.get(e, 0) for e in inst.edges))
    dual = Fraction(sum(alpha.values())) - Fraction(sum(Fraction(v) for v in x.values()))
    if primal != dual:
        raise RuntimeError(f"objective mismatch: primal {primal} != dual {dual}")
    beta = {edge: Fraction(x.get(edge, 0)) for edge in inst.edges}
    return DualCertificate(alpha, beta), primal, dual


# -- per-man reference for the lattice's join and meet ------------------------
# This is the package's earlier ``join_meet``.  The differential test compares
# the version that chooses only where the inputs differ with it.


def reference_join_meet(inst, a, b):
    """The package's earlier ``join_meet``: every matched man chooses, and
    both outputs are built from fresh (man, woman) tuples."""
    a, b = _indexed(inst, a), _indexed(inst, b)
    for indexed in (a, b):
        if _blocking(inst, indexed):
            raise ValueError("join, meet and dominance are defined on super-stable matchings only")
    mates_a, mates_b = a[1], b[1]
    if [j < 0 for j in mates_a] != [j < 0 for j in mates_b]:
        raise RuntimeError("super-stable matchings must match the same men")
    join, meet = [], []
    for i, (ja, jb) in enumerate(zip(mates_a, mates_b)):
        if ja < 0:
            continue
        ranks = inst._man_rank[i]
        if ranks[ja] == ranks[jb] and ja != jb:
            raise RuntimeError("tied distinct partners contradict super-stability")
        better, worse = (ja, jb) if ranks[ja] <= ranks[jb] else (jb, ja)
        join.append((inst.men[i], inst.women[better]))
        meet.append((inst.men[i], inst.women[worse]))
    return frozenset(join), frozenset(meet)


# -- per-token references for the text -> Instance path -----------------------
# These are the package's earlier ``parse_instance`` and ``Instance.__init__``,
# which scan every preference line token by token and check every list member
# by name.  The differential tests compare the index-space build with them.

_REF_NAME = re.compile(r"[A-Za-z0-9_]+\Z")
_REF_TOKEN = re.compile(r"\s*(?:([A-Za-z0-9_]+)|(\()|(\))|(\S))")


def reference_instance(men, women, prefs):
    """An ``Instance`` whose slots are filled by the per-member build."""
    inst = Instance.__new__(Instance)
    inst.men = tuple(men)
    inst.women = tuple(women)
    for name in inst.men + inst.women:
        if not _REF_NAME.match(name):
            raise ValueError(f"bad agent name {name!r}")
    if len(set(inst.men)) != len(inst.men):
        raise ValueError("duplicate name on the men side")
    if len(set(inst.women)) != len(inst.women):
        raise ValueError("duplicate name on the women side")
    overlap = set(inst.men) & set(inst.women)
    if overlap:
        raise ValueError(f"name declared on both sides: {sorted(overlap)[0]}")

    known = set(inst.men) | set(inst.women)
    for name in prefs:
        if name not in known:
            raise ValueError(f"preferences given for unknown agent {name!r}")

    normalized = {}
    mset, wset = set(inst.men), set(inst.women)
    for name in inst.men + inst.women:
        opposite = wset if name in mset else mset
        tiers = []
        seen = set()
        for tier in prefs.get(name, ()):
            tier = tuple(tier)
            if not tier:
                raise ValueError(f"empty tier in {name!r}'s list")
            for member in tier:
                if member not in opposite:
                    raise ValueError(
                        f"{name!r} lists {member!r}, which is not on the opposite side"
                    )
                if member in seen:
                    raise ValueError(f"duplicate entry {member!r} in {name!r}'s list")
                seen.add(member)
            tiers.append(tier)
        normalized[name] = tuple(tiers)
    inst.prefs = normalized

    inst._midx = {m: i for i, m in enumerate(inst.men)}
    inst._widx = {w: j for j, w in enumerate(inst.women)}
    inst._man_tiers = [
        [tuple(inst._widx[w] for w in tier) for tier in normalized[m]] for m in inst.men
    ]
    inst._woman_tiers = [
        [tuple(inst._midx[m] for m in tier) for tier in normalized[w]] for w in inst.women
    ]
    inst._man_rank = [
        {w: t + 1 for t, tier in enumerate(tiers) for w in tier}
        for tiers in inst._man_tiers
    ]
    inst._woman_rank = [
        {m: t + 1 for t, tier in enumerate(tiers) for m in tier}
        for tiers in inst._woman_tiers
    ]
    for names, others, ranks, back in (
        (inst.men, inst.women, inst._man_rank, inst._woman_rank),
        (inst.women, inst.men, inst._woman_rank, inst._man_rank),
    ):
        for i, listed in enumerate(ranks):
            for j in listed:
                if i not in back[j]:
                    raise ValueError(
                        f"non-mutual listing: {names[i]!r} lists {others[j]!r}"
                        " but not vice versa"
                    )
    return inst


def reference_edges(inst):
    """The edges of a per-member build: each man's partners in list order."""
    return tuple((m, w) for m in inst.men for tier in inst.prefs[m] for w in tier)


def reference_parse_instance(text):
    """``parse_instance`` by a per-token scan of every preference line."""
    men = None
    women = None
    pref_lines = []
    last_line = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        last_line = ln
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected '<name>: ...'", ln)
        label, _, rest = line.partition(":")
        label = label.strip()
        if not _REF_NAME.match(label):
            raise ParseError(f"bad name {label!r}", ln)
        if men is None:
            if label != "men":
                raise ParseError("first line must be the 'men:' header", ln)
            men = rest.split()
            if not men:
                raise ParseError("empty side: no men declared", ln)
            continue
        if women is None:
            if label != "women":
                raise ParseError("second line must be the 'women:' header", ln)
            women = rest.split()
            if not women:
                raise ParseError("empty side: no women declared", ln)
            continue
        pref_lines.append((ln, label, rest))
    if men is None or women is None:
        raise ParseError("missing men:/women: headers", last_line or 1)

    prefs = {}
    for ln, agent, rest in pref_lines:
        if agent in prefs:
            raise ParseError(f"duplicate preference line for {agent!r}", ln)
        tiers = []
        group = None
        pos = 0
        while pos < len(rest):
            match = _REF_TOKEN.match(rest, pos)
            if match is None:
                break
            pos = match.end()
            name, opener, closer, junk = match.groups()
            col = match.start(match.lastindex) + 1 + len(agent) + 1
            if junk is not None:
                raise ParseError(f"unexpected character {junk!r}", ln, col)
            if opener is not None:
                if group is not None:
                    raise ParseError("nested '(' in tie group", ln, col)
                group = []
            elif closer is not None:
                if group is None:
                    raise ParseError("')' without matching '('", ln, col)
                if not group:
                    raise ParseError("empty tie group", ln, col)
                tiers.append(group)
                group = None
            else:
                if group is None:
                    tiers.append([name])
                else:
                    group.append(name)
        if group is not None:
            raise ParseError("unclosed '(' in tie group", ln)
        prefs[agent] = tiers

    known = set(men) | set(women)
    for ln, agent, _ in pref_lines:
        if agent not in known:
            raise ParseError(f"unknown agent name {agent!r}", ln)
    try:
        return reference_instance(men, women, prefs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# -- per-line reference for edge-value files -----------------------------------
# This is the package's earlier ``parse_edge_values``, which parses every
# line's rational on its own, with the token check written out character by
# character.  The differential test compares the token-sharing parse with it.

_REF_DIGITS = frozenset("0123456789")


def reference_parse_edge_values(inst, text):
    """``parse_edge_values`` with one ``Fraction`` parsed per line."""
    values = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected '<man> <woman> <rational>'", ln)
        m, w, value = parts
        if not inst.is_edge(m, w):
            raise ParseError(f"({m}, {w}) is not an edge of the instance", ln)
        if (m, w) in values:
            raise ParseError(f"duplicate line for edge ({m}, {w})", ln)
        values[(m, w)] = _reference_fraction(value, ln)
    return values


def _reference_fraction(token, ln):
    """An integer or ``p/q``, each part ASCII digits after an optional sign."""
    num, slash, den = token.partition("/")
    parts = [num, den] if slash else [num]
    for part in parts:
        digits = part[1:] if part[:1] in ("+", "-") else part
        if not digits or not set(digits) <= _REF_DIGITS:
            raise ParseError(f"bad rational {token!r}", ln)
    p = int(num)
    q = int(den) if slash else 1
    if q <= 0:
        raise ParseError(f"bad rational {token!r}: denominator must be positive", ln)
    return Fraction(p, q)


# -- edge-set reference for the proposal/deletion solver ----------------------
# This is the package's earlier ``_propose_and_delete``, which keeps every
# live pair in a set per agent and deletes pairs one at a time.  The solver's
# differential test compares the list-position form with it.


def _reference_optimum(inst, side):
    found = reference_propose_and_delete(inst, side)
    return None if found is None or blocking_edges(inst, found, SUPER) else found


def merged_tiers(seed, n, trials):
    """A strict random instance whose adjacent tiers are merged one pair at a
    time, each merge kept only while the reference solver still finds a
    super-stable matching.  Merges start at a side-optimal partner's tier,
    where the tie rules act.  Returns the instance and the merges kept."""
    rng = random.Random(seed)
    inst = random_instance(n, n, 0.6, 0.0, seed=seed)
    optima = [_reference_optimum(inst, side) for side in (MEN, WOMEN)]
    kept = 0
    for _ in range(trials):
        if None in optima:
            break
        pair = rng.choice(sorted(optima[0] | optima[1]))
        agent, partner = pair if rng.random() < 0.5 else pair[::-1]
        tiers = [list(t) for t in inst.prefs[agent]]
        if len(tiers) < 2:
            continue
        i = next(i for i, t in enumerate(tiers) if partner in t)
        i = min(max(i - rng.randrange(2), 0), len(tiers) - 2)
        tiers[i : i + 2] = [tiers[i] + tiers[i + 1]]
        merged = Instance(inst.men, inst.women, {**inst.prefs, agent: tiers})
        trial = [_reference_optimum(merged, side) for side in (MEN, WOMEN)]
        if None not in trial:
            inst, optima, kept = merged, trial, kept + 1
    return inst, kept


def reference_propose_and_delete(inst, side):
    """Extended proposal/deletion rounds over explicit live-pair sets;
    returns the engagement matching as (man, woman) pairs, or None."""
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
    eng_p = [set() for _ in range(n_prop)]
    eng_r = [set() for _ in range(n_recv)]
    queue = deque(range(n_prop))

    def delete_pair(p, r):
        alive_p[p].discard(r)
        alive_r[r].discard(p)
        if r in eng_p[p]:
            eng_p[p].discard(r)
            eng_r[r].discard(p)
            if not eng_p[p]:
                queue.append(p)

    def delete_tier(r, tier_index):
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


# -- basis-enumeration reference for the vertex enumeration -------------------
# This is the package's earlier ``vertices`` with its three helpers, which
# solves every basis and evaluates every constraint row in ``Fraction``s and
# builds its rows by agent name.  The differential tests compare ``vertices``
# and its integer back-substitution with it; it holds no import from
# ``superstable.polytope``.


def reference_vertices(inst: Instance, model: str = SUPER, cap: int = 8) -> list[dict]:
    """Every extreme point of the chosen system, by exact basis enumeration.

    Selects |E| constraints to hold with equality, solves the square rational
    system whenever it is uniquely solvable, and keeps feasible solutions,
    deduplicated.  ``cap`` guards the combinatorial blow-up.
    """
    if model not in (SUPER, STRONG):
        raise ValueError(f"unknown model {model!r}")
    edges = inst.edges
    nvars = len(edges)
    if nvars > cap:
        raise ValueError(f"|E| = {nvars} exceeds cap = {cap}")
    if nvars == 0:
        return [{}]  # zero-dimensional system: the empty vector is its vertex
    feasible_rows = _reference_constraint_rows(inst, model)
    pool = sorted({(coeffs, rhs) for coeffs, rhs, _ in feasible_rows}, reverse=True)
    found: dict[tuple, dict] = {}
    pivots: list[tuple[int, list[int], int]] = []

    def solve() -> None:
        x = reference_back_substitute(pivots, nvars)
        for coeffs, rhs, sense in feasible_rows:
            value = sum(c * xi for c, xi in zip(coeffs, x) if c)
            if (sense == "le" and value > rhs) or (sense == "ge" and value < rhs):
                return
        key = tuple(x)
        if key not in found:
            found[key] = {edge: x[i] for i, edge in enumerate(edges) if x[i] != 0}

    def descend(start: int, need: int) -> None:
        if need == 0:
            solve()
            return
        for idx in range(start, len(pool) - need + 1):
            reduced = _reference_eliminate(pivots, *pool[idx])
            if reduced is None:
                continue
            pivots.append(reduced)
            descend(idx + 1, need - 1)
            pivots.pop()

    descend(0, nvars)
    return [found[key] for key in sorted(found)]


def reference_back_substitute(pivots, nvars):
    """The solution of the square triangular system the elimination leaves,
    one ``Fraction`` per coordinate."""
    x: list[Fraction] = [Fraction(0)] * nvars
    for col, row, rhs in reversed(pivots):
        acc = Fraction(rhs)
        for c in range(nvars):
            if c != col and row[c]:
                acc -= row[c] * x[c]
        x[col] = acc / row[col]
    return x


def _reference_eliminate(pivots, coeffs, rhs):
    """Fraction-free reduction of a row against the chosen pivots.

    Returns (pivot column, reduced integer row, reduced rhs), or None when
    the row is linearly dependent on / inconsistent with the pivots.
    """
    row = list(coeffs)
    r = rhs
    for col, prow, prhs in pivots:
        f = row[col]
        if f:
            p = prow[col]
            row = [a * p - f * b for a, b in zip(row, prow)]
            r = r * p - f * prhs
            shrink = gcd(*row, r)
            if shrink > 1:
                row = [a // shrink for a in row]
                r //= shrink
    for col, value in enumerate(row):
        if value:
            return col, row, r
    return None


def _reference_constraint_rows(inst: Instance, model: str):
    """Rows (integer coefficient tuple, rhs, sense) of the chosen system."""
    edges = inst.edges
    nvars = len(edges)
    at = {edge: i for i, edge in enumerate(edges)}
    rows = []

    def incident(name):
        if name in inst._midx:
            return [at[(name, w)] for w in inst.neighbors(name)]
        return [at[(m, name)] for m in inst.neighbors(name)]

    for name in inst.men + inst.women:
        cols = incident(name)
        if not cols:
            continue
        coeffs = [0] * nvars
        for c in cols:
            coeffs[c] = 1
        rows.append((tuple(coeffs), 1, "le"))
    for m, w in edges:
        rm = inst.man_rank(m, w)
        rw = inst.woman_rank(w, m)
        strict_m = [at[(m, v)] for v in inst.neighbors(m) if inst.man_rank(m, v) < rm]
        strict_w = [at[(u, w)] for u in inst.neighbors(w) if inst.woman_rank(w, u) < rw]
        tie_m = [at[(m, v)] for v in inst.neighbors(m) if inst.man_rank(m, v) == rm]
        tie_w = [at[(u, w)] for u in inst.neighbors(w) if inst.woman_rank(w, u) == rw]
        if model == SUPER:
            variants = [strict_m + strict_w + [at[(m, w)]]]
        else:
            variants = [strict_m + strict_w + tie_m, strict_m + strict_w + tie_w]
        for cols in variants:
            coeffs = [0] * nvars
            for c in cols:
                coeffs[c] = 1
            rows.append((tuple(coeffs), 1, "ge"))
    for i in range(nvars):
        coeffs = [0] * nvars
        coeffs[i] = 1
        rows.append((tuple(coeffs), 0, "ge"))
    return rows
