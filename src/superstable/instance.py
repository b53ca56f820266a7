"""Bipartite preference instances with ties: data model, text format, generation."""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction
from itertools import chain, filterfalse, repeat
from operator import contains
from typing import Iterable, Mapping, Sequence

MEN = "men"
WOMEN = "women"

_NAME = re.compile(r"[A-Za-z0-9_]+\Z")
_TOKEN = re.compile(r"\s*(?:([A-Za-z0-9_]+)|(\()|(\))|(\S))")
# a whole preference line, matched in linear time: the lookahead makes every
# name maximal, so no name can be split to retry a failed match
_PLAIN_LINE = re.compile(r"[A-Za-z0-9_\s]*")
_ENTRY_NAME = r"[A-Za-z0-9_]+(?![A-Za-z0-9_])"
_TIED_LINE = re.compile(
    rf"\s*(?:(?:{_ENTRY_NAME}|\((?:\s*{_ENTRY_NAME})+\s*\))\s*)*"
)
_ENTRY = re.compile(r"\(([^)]*)\)|([A-Za-z0-9_]+)")
# ``int`` alone would also take digit separators and non-ASCII digits
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")


class ParseError(ValueError):
    """Raised when an input file does not follow the documented format."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}: " if column is None else f"line {line}, col {column}: "
        super().__init__(where + message)


class Instance:
    """A two-sided preference system with tied, possibly incomplete lists.

    ``prefs`` maps each agent name to its preference tiers, most preferred
    first; members of one tier are equally preferred.  A pair (m, w) is an
    edge exactly when each side lists the other; one-sided listings are
    rejected at construction.  Instances are immutable once built and safe
    to share between threads.
    """

    __slots__ = (
        "men",
        "women",
        "prefs",
        "edges",
        "_midx",
        "_widx",
        "_man_tiers",
        "_woman_tiers",
        "_man_rank",
        "_woman_rank",
    )

    def __init__(
        self,
        men: Sequence[str],
        women: Sequence[str],
        prefs: Mapping[str, Iterable[Iterable[str]]],
    ):
        self.men = tuple(men)
        self.women = tuple(women)
        bad = next(filterfalse(_NAME.match, self.men + self.women), None)
        if bad is not None:
            raise ValueError(f"bad agent name {bad!r}")
        self._midx = {m: i for i, m in enumerate(self.men)}
        self._widx = {w: j for j, w in enumerate(self.women)}
        if len(self._midx) != len(self.men):
            raise ValueError("duplicate name on the men side")
        if len(self._widx) != len(self.women):
            raise ValueError("duplicate name on the women side")
        overlap = self._midx.keys() & self._widx.keys()
        if overlap:
            raise ValueError(f"name declared on both sides: {sorted(overlap)[0]}")
        for name in prefs:
            if name not in self._midx and name not in self._widx:
                raise ValueError(f"preferences given for unknown agent {name!r}")

        self.prefs: dict[str, tuple[tuple[str, ...], ...]] = {}
        self._man_tiers, self._man_rank = _index_lists(
            self.men, self._widx, prefs, self.prefs
        )
        self._woman_tiers, self._woman_rank = _index_lists(
            self.women, self._midx, prefs, self.prefs
        )
        # mutual acceptability defines the edge set: it holds when every
        # man's listing is returned and both sides list as many pairs
        woman_rank = self._woman_rank
        if sum(map(len, self._man_rank)) != sum(map(len, woman_rank)) or not all(
            all(map(contains, map(woman_rank.__getitem__, ranks), repeat(i)))
            for i, ranks in enumerate(self._man_rank)
        ):
            # report the first one-sided listing in declaration order, men's first
            for names, others, ranks, back in (
                (self.men, self.women, self._man_rank, self._woman_rank),
                (self.women, self.men, self._woman_rank, self._man_rank),
            ):
                for i, listed in enumerate(ranks):
                    for j in listed:
                        if i not in back[j]:
                            raise ValueError(
                                f"non-mutual listing: {names[i]!r} lists {others[j]!r}"
                                " but not vice versa"
                            )
        self.edges = tuple(
            chain.from_iterable(
                zip(repeat(m), map(self.women.__getitem__, ranks))
                for m, ranks in zip(self.men, self._man_rank)
            )
        )

    # -- basic queries ----------------------------------------------------

    def is_edge(self, man: str, woman: str) -> bool:
        i, j = self._midx.get(man), self._widx.get(woman)
        return i is not None and j is not None and j in self._man_rank[i]

    def neighbors(self, name: str) -> tuple[str, ...]:
        """Acceptable partners of ``name`` in preference order (ties flattened)."""
        try:
            tiers = self.prefs[name]
        except KeyError:
            raise ValueError(f"unknown agent {name!r}") from None
        return tuple(p for tier in tiers for p in tier)

    def man_rank(self, man: str, woman: str) -> int:
        """1-based tier index of ``woman`` in ``man``'s list."""
        try:
            return self._man_rank[self._midx[man]][self._widx[woman]]
        except KeyError:
            raise ValueError(f"({man!r}, {woman!r}) is not an edge") from None

    def woman_rank(self, woman: str, man: str) -> int:
        """1-based tier index of ``man`` in ``woman``'s list."""
        try:
            return self._woman_rank[self._widx[woman]][self._midx[man]]
        except KeyError:
            raise ValueError(f"({man!r}, {woman!r}) is not an edge") from None

    def __eq__(self, other):
        return (
            isinstance(other, Instance)
            and self.men == other.men
            and self.women == other.women
            and self.prefs == other.prefs
        )

    def __hash__(self):
        lists = tuple(map(self.prefs.__getitem__, self.men + self.women))
        return hash((self.men, self.women, lists))

    def __repr__(self):
        return f"Instance({len(self.men)} men, {len(self.women)} women, {len(self.edges)} edges)"


def _index_lists(names, opposite, prefs, normalized):
    """Each agent's tiers as tuples of opposite-side indices, and its 1-based
    rank map in list order.  ``normalized`` receives the tiers as tuples of
    names.  The cyclic garbage collector stops tracking a tuple of ints after
    its first pass and never tracks a dict of ints, so the index data does
    not keep it busy.

    Each small immutable value is held once per side, whatever the caller
    passed: every one-member tier, in strict and tied lists alike, is the
    one ``(name,)`` tuple of the declared name in ``normalized`` and the one
    ``(index,)`` tuple in the index tiers, and every rank is an int from one
    pool, since Python caches no int above 256.  So a strict list costs one
    pointer per entry in each.

    A list maps in a few C-level passes over its entries.  One with a name
    not on the opposite side, an empty tier or a repeated entry is checked
    member by member instead, to raise the error for its first fault.
    """
    lookup = opposite.__getitem__
    name_singles = [(other,) for other in opposite]
    index_singles = [(j,) for j in opposite.values()]
    rank_pool = tuple(range(1, len(opposite) + 1))
    index_tiers, rank_maps = [], []
    for name in names:
        tiers: list[tuple] = []
        try:
            tiers.extend(map(tuple, prefs.get(name, ())))
        except Exception:
            # a fault in an earlier tier comes first, as in a member-by-member scan
            _check_members(name, tiers, opposite)
            raise
        try:
            flat = list(map(lookup, chain.from_iterable(tiers)))
            strict = len(flat) == len(tiers)  # one member per tier, unless one is empty
            if strict:
                ranks = dict(zip(flat, rank_pool))
            else:
                sizes = map(len, tiers)
                ranks = dict(zip(flat, chain.from_iterable(map(repeat, rank_pool, sizes))))
            clean = all(tiers) and len(ranks) == len(flat)
        except (KeyError, TypeError):
            clean = False
        if not clean:
            _check_members(name, tiers, opposite)
            raise RuntimeError(f"{name!r}'s list rejected without a fault")
        if strict:
            normalized[name] = tuple([name_singles[p] for p in flat])
            indices = [index_singles[p] for p in flat]
        else:
            indices = []
            for k, tier in enumerate(tiers):
                if len(tier) == 1:
                    j = lookup(tier[0])
                    indices.append(index_singles[j])
                    tiers[k] = name_singles[j]
                else:
                    indices.append(tuple(map(lookup, tier)))
            normalized[name] = tuple(tiers)
        index_tiers.append(indices)
        rank_maps.append(ranks)
    return index_tiers, rank_maps


def _check_members(name, tiers, opposite) -> None:
    """Check ``name``'s tiers member by member, in list order, and raise a
    ValueError for the first fault."""
    seen: set[str] = set()
    for tier in tiers:
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


# -- text format -----------------------------------------------------------


def parse_instance(text: str) -> Instance:
    """Parse the instance text format.

    ``#`` starts a comment, blank lines are skipped.  The first two
    meaningful lines must be ``men: <names>`` and ``women: <names>``, then one
    preference line per agent: ``name: entry entry ...`` where an entry is a
    bare name or a tie group ``(a b c)``.  Agents without a preference line
    have an empty list.

    Each preference line is checked by one full regex match, linear in its
    length, and split in one call (``str.split`` without tie groups, one
    ``findall`` with them).  Each entry of a plain line becomes the one
    shared ``(name,)`` tuple of its declared name, so the line allocates no
    tuple per entry and keeps none of its split strings.  ``Instance`` then
    maps every list to indices in a few C-level passes, sharing each
    one-member tier, so the cost is a small constant per list entry.
    Only a line that fails its match is scanned token by token, to report
    the first fault with its column.
    """
    men: list[str] | None = None
    women: list[str] | None = None
    pref_lines: list[tuple[int, str, str]] = []
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
        if not _NAME.match(label):
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

    # one shared one-member tier per declared name; a line naming an
    # undeclared agent keeps tuples of its own, which ``Instance`` rejects
    single = {name: (name,) for name in chain(men, women)}
    prefs: dict[str, tuple[tuple[str, ...], ...]] = {}
    for ln, agent, rest in pref_lines:
        if agent in prefs:
            raise ParseError(f"duplicate preference line for {agent!r}", ln)
        if _PLAIN_LINE.fullmatch(rest):
            entries = rest.split()
            try:
                prefs[agent] = tuple(map(single.__getitem__, entries))
            except KeyError:
                prefs[agent] = tuple(zip(entries))
        elif _TIED_LINE.fullmatch(rest):
            prefs[agent] = tuple(
                tuple(group.split()) if group else single.get(name, (name,))
                for group, name in _ENTRY.findall(rest)
            )
        else:
            _raise_first_bad_token(rest, agent, ln)

    for ln, agent, _ in pref_lines:
        if agent not in single:
            raise ParseError(f"unknown agent name {agent!r}", ln)
    try:
        return Instance(men, women, prefs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _raise_first_bad_token(rest: str, agent: str, ln: int) -> None:
    """Scan a rejected preference line token by token and raise a ParseError
    for its first fault, with the column where the line has one."""
    members: int | None = None  # names in the open tie group; None outside one
    pos = 0
    while pos < len(rest):
        match = _TOKEN.match(rest, pos)
        if match is None:
            break
        pos = match.end()
        _, opener, closer, junk = match.groups()
        col = match.start(match.lastindex) + 1 + len(agent) + 1
        if junk is not None:
            raise ParseError(f"unexpected character {junk!r}", ln, col)
        if opener is not None:
            if members is not None:
                raise ParseError("nested '(' in tie group", ln, col)
            members = 0
        elif closer is not None:
            if members is None:
                raise ParseError("')' without matching '('", ln, col)
            if not members:
                raise ParseError("empty tie group", ln, col)
            members = None
        elif members is not None:
            members += 1
    if members is not None:
        raise ParseError("unclosed '(' in tie group", ln)
    raise RuntimeError(f"line {ln}: preference line rejected without a fault: {rest!r}")


def serialize_instance(inst: Instance) -> str:
    """Canonical text form; preserves declared order so round-trips are exact."""
    lines = ["men: " + " ".join(inst.men), "women: " + " ".join(inst.women)]
    for name in inst.men + inst.women:
        tiers = inst.prefs[name]
        if not tiers:
            continue
        entries = [
            tier[0] if len(tier) == 1 else "(" + " ".join(tier) + ")" for tier in tiers
        ]
        lines.append(f"{name}: {' '.join(entries)}")
    return "\n".join(lines) + "\n"


# -- random generation -------------------------------------------------------


def random_instance(
    n_men: int, n_women: int, density: float, tie_prob: float, seed: int
) -> Instance:
    """Random instance: each pair is an edge with probability ``density``.

    Each agent's list is a uniformly random permutation of its neighbors,
    with each adjacent pair merged into one tier independently with
    probability ``tie_prob``.  Deterministic for fixed arguments.
    """
    if n_men < 1 or n_women < 1:
        raise ValueError("both sides need at least one agent")
    if not (0.0 <= density <= 1.0 and 0.0 <= tie_prob <= 1.0):
        raise ValueError("density and tie_prob must lie in [0, 1]")
    rng = random.Random(seed)
    men = [f"m{i}" for i in range(1, n_men + 1)]
    women = [f"w{j}" for j in range(1, n_women + 1)]
    adj: dict[str, list[str]] = {m: [] for m in men}
    radj: dict[str, list[str]] = {w: [] for w in women}
    for m in men:
        for w in women:
            if rng.random() < density:
                adj[m].append(w)
                radj[w].append(m)
    prefs: dict[str, list[list[str]]] = {}
    for name, neighbors in [(m, adj[m]) for m in men] + [(w, radj[w]) for w in women]:
        order = list(neighbors)
        rng.shuffle(order)
        tiers: list[list[str]] = []
        for i, partner in enumerate(order):
            if i > 0 and rng.random() < tie_prob:
                tiers[-1].append(partner)
            else:
                tiers.append([partner])
        prefs[name] = tiers
    return Instance(men, women, prefs)


# -- edge-value files (weights, fractional points) ---------------------------


def parse_edge_values(inst: Instance, text: str) -> dict[tuple[str, str], Fraction]:
    """Parse ``man woman rational`` lines; rationals are ``p`` or ``p/q`` with
    q > 0, written in ASCII digits with an optional leading sign.

    Each distinct token is parsed and checked once, and its ``Fraction``
    shared by every line that repeats it, so the cost is a dict lookup and
    an edge test per line plus one parse per distinct value.
    """
    values: dict[tuple[str, str], Fraction] = {}
    rationals: dict[str, Fraction] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected '<man> <woman> <rational>'", ln)
        m, w, token = parts
        if not inst.is_edge(m, w):
            raise ParseError(f"({m}, {w}) is not an edge of the instance", ln)
        if (m, w) in values:
            raise ParseError(f"duplicate line for edge ({m}, {w})", ln)
        value = rationals.get(token)
        if value is None:
            value = rationals[token] = _parse_fraction(token, ln)
        values[(m, w)] = value
    return values


def load_weights(inst: Instance, text: str) -> dict[tuple[str, str], Fraction]:
    """Parse a weights file; edges absent from the file weigh 0."""
    return parse_edge_values(inst, text)


def _parse_fraction(token: str, ln: int) -> Fraction:
    match = _RATIONAL.fullmatch(token)
    if match is None:
        raise ParseError(f"bad rational {token!r}", ln)
    num, den = match.groups()
    try:
        p = int(num)
        q = 1 if den is None else int(den)
    except ValueError:  # more digits than the interpreter converts
        limit = sys.get_int_max_str_digits()
        raise ParseError(
            f"rational {token[:20]}... ({len(token)} characters) has a part"
            f" longer than the limit of {limit} digits",
            ln,
        ) from None
    if q <= 0:
        raise ParseError(f"bad rational {token!r}: denominator must be positive", ln)
    return Fraction(p, q)
