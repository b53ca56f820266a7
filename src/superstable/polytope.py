"""Exact rational verification of the super-stable and strongly stable
constraint systems, the self-duality certificate, and desk-scale vertex
enumeration.  No floating point anywhere in this module."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, inf, lcm
from operator import mul
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .instance import Instance
from .stability import STRONG, SUPER, _blockers


class Violation(NamedTuple):
    constraint: str  # "1a".."1c" for the super system, "3a".."3d" for strong
    witness: object  # vertex name or (man, woman) pair
    lhs: Fraction
    relation: str


@dataclass(frozen=True)
class DualCertificate:
    alpha: dict  # vertex -> value, >= 0
    beta: dict  # edge -> value, >= 0


def incidence_vector(matching) -> dict:
    """The 0/1 edge vector of a matching."""
    return {edge: 1 for edge in matching}


def convex_combination(points, coefficients) -> dict:
    """Exact convex combination of edge vectors (coefficients must sum to 1)."""
    points = list(points)
    coefficients = [Fraction(c) for c in coefficients]
    if len(points) != len(coefficients):
        raise ValueError(f"{len(points)} points but {len(coefficients)} coefficients")
    if sum(coefficients) != 1 or any(c < 0 for c in coefficients):
        raise ValueError("coefficients must be nonnegative and sum to 1")
    combined: dict = {}
    for point, c in zip(points, coefficients):
        for edge, value in point.items():
            combined[edge] = combined.get(edge, Fraction(0)) + c * Fraction(value)
    return combined


# the row of a man without a nonzero entry
_NO_ROW: Mapping[int, int] = MappingProxyType({})


def _tier_sums(inst: Instance, point):
    """The point in index space, scaled to integers, with per-agent sums.

    The name-space front end of ``_index_sums``: it checks that every key
    is an edge, takes each nonzero value as an int or a ``Fraction``, and
    scales them by the lcm of their denominators.  Int values pass through
    as they are when no value is fractional, as on a 0/1 point.
    """
    midx, widx, man_rank = inst._midx, inst._widx, inst._man_rank
    entries, fractional = [], []
    for (m, w), value in point.items():
        i, j = midx.get(m), widx.get(w)
        if i is None or j is None or j not in man_rank[i]:
            raise _not_an_edge(m, w)
        if isinstance(value, int):
            if value:
                entries.append((i, j, value))
        elif value:
            q = value if isinstance(value, Fraction) else Fraction(value)
            fractional.append((i, j, q))
    scale = lcm(*(q.denominator for _, _, q in fractional))
    if scale > 1:
        entries = [(i, j, v * scale) for i, j, v in entries]
    entries += [(i, j, q.numerator * (scale // q.denominator)) for i, j, q in fractional]
    return _index_sums(inst, _offsets(inst), scale, entries)


def _index_sums(inst: Instance, offsets, scale: int, entries):
    """Per-agent sums of a point given in index space, in integers.

    ``offsets`` is ``_offsets(inst)``, which a caller that sums many points
    of one instance computes once.  ``entries`` lists (i, j, v) for the
    nonzero entries, where v is the integer scale * x(m_i, w_j) and each
    edge occurs at most once.  Returns (scale, rows, men, women, negative).
    ``rows`` maps each man index i with an entry to a dict from woman index
    j to v.  ``men`` (resp. ``women``) is a pair (prefix, off) of flat lists: agent a owns slots
    off[a] .. off[a] + its tier count, and prefix[off[a] + r] is scale times
    its mass on tiers 1..r, so off[a] + r - 1 holds the strictly-better mass
    at rank r and off[a + 1] - 1 the vertex total.  ``negative`` lists,
    ascending, the men with a negative entry.

    Each entry adds its value at its rank's slot and takes it off again at
    the next agent's first slot, so one ``accumulate`` over each side's list
    leaves every agent's prefix starting from 0.  The cost is O(|entries|)
    plus one slot per tier and per agent, in two lists per side.
    """
    man_rank, woman_rank = inst._man_rank, inst._woman_rank
    mo, wo = offsets
    pm, pw = [0] * (mo[-1] + 1), [0] * (wo[-1] + 1)
    rows: dict[int, dict[int, int]] = {}
    negative = set()
    for i, j, v in entries:
        row = rows.get(i)
        if row is None:
            rows[i] = row = {}
        row[j] = v
        if v < 0:
            negative.add(i)
        pm[mo[i] + man_rank[i][j]] += v
        pm[mo[i + 1]] -= v
        pw[wo[j] + woman_rank[j][i]] += v
        pw[wo[j + 1]] -= v
    return scale, rows, (list(accumulate(pm)), mo), (list(accumulate(pw)), wo), sorted(negative)


def _offsets(inst: Instance) -> tuple[list[int], list[int]]:
    """Each man's and each woman's first slot in a flat prefix list, and the
    end: an agent with t tiers owns t + 1 slots."""
    return tuple(
        list(accumulate(map((1).__add__, map(len, tiers)), initial=0))
        for tiers in (inst._man_tiers, inst._woman_tiers)
    )


def _totals(side) -> list[int]:
    """Each agent's total from a (prefix, off) pair of ``_tier_sums``."""
    prefix, off = side
    return [prefix[k - 1] for k in off[1:]]


def check_point(inst: Instance, point, model: str = SUPER) -> list[Violation]:
    """Exact constraint report for the chosen system; empty iff feasible.

    Super system: per-vertex incident sums at most 1 (1a); for every edge the
    strictly-better mass at both ends plus the edge itself reaches 1 (1b);
    nonnegativity (1c).  The strong system replaces (1b) by two constraints
    that count each endpoint's whole tie tier (3b, 3c).  Violations come in
    that order, by vertex (men first) and then in ``inst.edges`` order.

    A point whose nonzero values all equal 1 on edges that share no agent
    is the incidence vector x_M of a matching M.  It meets (1a) and (1c),
    and (1b) at an edge e reads 0 exactly when e blocks M in the super
    sense (the polyhedral characterisation of super-stability); (3b)
    reads 0 exactly when e blocks with its man strictly better off, (3c)
    with its woman, and every other left-hand side is at least 1.  Such a
    point is reported from ``stability``'s blocking walk, a prefix walk per
    man, with lhs 0 at each breach.

    Any other point goes through the prefix-sum kernel: sums come from the
    point's nonzero entries in integers scaled by their common denominator,
    so every edge constraint is a few integer lookups.  With no negative
    entry, a man's edges past the point where his strictly-better mass
    reaches 1 hold, so his list is walked only that far: a prefix walk per
    man, O(|E|) at worst, plus the size of the point.
    """
    if model not in (SUPER, STRONG):
        raise ValueError(f"unknown model {model!r}")
    mates = _matching_mates(inst, point)
    if mates is None:
        return _violations(inst, _tier_sums(inst, point), model)
    men, women, zero = inst.men, inst.women, Fraction(0)
    report = []
    for i, j, he_gains, she_gains in _blockers(inst, *mates):
        edge = (men[i], women[j])
        if model == SUPER:
            report.append(Violation("1b", edge, zero, ">= 1"))
            continue
        if he_gains:
            report.append(Violation("3b", edge, zero, ">= 1"))
        if she_gains:
            report.append(Violation("3c", edge, zero, ">= 1"))
    return report


def _matching_mates(inst: Instance, point):
    """(mate_of_man, mate_of_woman), each agent's partner index or -1, when
    ``point`` is a matching's incidence vector; None otherwise.

    It checks each key it reads as ``_tier_sums`` does and stops at the
    first value that is neither 0 nor 1 or the first agent met twice, so a
    non-edge key after that point is ``_tier_sums``' to report.
    """
    midx, widx, man_rank = inst._midx, inst._widx, inst._man_rank
    mate_of_man, mate_of_woman = [-1] * len(inst.men), [-1] * len(inst.women)
    for (m, w), value in point.items():
        i, j = midx.get(m), widx.get(w)
        if i is None or j is None or j not in man_rank[i]:
            raise _not_an_edge(m, w)
        if value:
            if value != 1 or mate_of_man[i] >= 0 or mate_of_woman[j] >= 0:
                return None
            mate_of_man[i], mate_of_woman[j] = j, i
    return mate_of_man, mate_of_woman


def _not_an_edge(m, w) -> ValueError:
    return ValueError(f"point key ({m!r}, {w!r}) is not an edge")


def _violations(inst: Instance, sums, model: str) -> list[Violation]:
    """``check_point``'s report, from the output of ``_tier_sums``."""
    scale = sums[0]
    return [
        Violation(tag, witness, Fraction(lhs, scale), relation)
        for tag, witness, lhs, relation in _breaches(inst, sums, model)
    ]


def _feasible(inst: Instance, sums, model: str) -> bool:
    """Whether the point behind ``sums`` meets every constraint; it stops at
    the first breach and builds no ``Fraction``."""
    return next(_breaches(inst, sums, model), None) is None


def _breaches(inst: Instance, sums, model: str):
    """The one feasibility test: yields (tag, witness, lhs, relation) for
    each violated constraint in report order, with lhs in integers at the
    point's scale."""
    scale, rows, men, women, negative = sums
    vertex_tag = "1a" if model == SUPER else "3a"
    nonneg_tag = "1c" if model == SUPER else "3d"
    for name, total in zip(inst.men + inst.women, _totals(men) + _totals(women)):
        if total > scale:
            yield vertex_tag, name, total, "<= 1"
    # with nonnegative entries every term is nonnegative and the man's
    # strictly-better mass only grows along his list
    stop = inf if negative else scale
    (pm, mo), (pw, wo) = men, women
    woman_rank = inst._woman_rank
    for i, ranks in enumerate(inst._man_rank):
        # pm[om + r] (resp. pw[ow]) is the strictly-better mass at rank r
        om, row = mo[i] - 1, rows.get(i, _NO_ROW)
        for j, rm in ranks.items():
            if pm[om + rm] >= stop:
                break
            ow = wo[j] + woman_rank[j][i] - 1
            if model == SUPER:
                lhs = pm[om + rm] + pw[ow] + row.get(j, 0)
                if lhs < scale:
                    yield "1b", (inst.men[i], inst.women[j]), lhs, ">= 1"
            else:
                # the strictly-better mass at both ends plus one end's tie tier
                lhs = pm[om + rm + 1] + pw[ow]
                if lhs < scale:
                    yield "3b", (inst.men[i], inst.women[j]), lhs, ">= 1"
                lhs = pm[om + rm] + pw[ow + 1]
                if lhs < scale:
                    yield "3c", (inst.men[i], inst.women[j]), lhs, ">= 1"
    for i in negative:
        row = rows[i]
        for j in inst._man_rank[i]:
            if row.get(j, 0) < 0:
                yield nonneg_tag, (inst.men[i], inst.women[j]), row[j], ">= 0"


def self_dual(inst: Instance, point):
    """Dual certificate induced by a feasible point, with both objectives.

    Every vertex's multiplier is its incident sum and every edge reuses the
    point itself.  Dual feasibility is verified constraint by constraint and
    the two objective values must agree exactly, which certifies the point
    as optimal for the maximize-total-mass program over the system.  Both
    checks run in integers scaled by the point's common denominator, on the
    sums ``check_point`` uses.  A feasible point is nonnegative, so a dual
    constraint holds once the man's strictly-better mass reaches 1: a prefix
    walk per man, O(|E|) at worst, plus the size of the point.
    """
    sums = _tier_sums(inst, point)
    if not _feasible(inst, sums, SUPER):
        raise ValueError("point is not feasible for the super-stable system")
    scale, rows, men, women, _ = sums
    (pm, mo), (pw, wo) = men, women
    woman_rank = inst._woman_rank
    for i, ranks in enumerate(inst._man_rank):
        om, row = mo[i] - 1, rows.get(i, _NO_ROW)
        for j, rm in ranks.items():
            if pm[om + rm] >= scale:
                break
            # alpha_m + alpha_w minus both ends' strictly-worse mass, minus x_e;
            # it is at least pm[om + rm], as x_e is part of the mass on tier rm
            lhs = pm[om + rm + 1] + pw[wo[j] + woman_rank[j][i]] - row.get(j, 0)
            if lhs < scale:
                raise RuntimeError(
                    f"dual constraint failed at ({inst.men[i]}, {inst.women[j]}): "
                    f"{Fraction(lhs, scale)} < 1"
                )
    totals = _totals(men) + _totals(women)
    mass = sum(sum(row.values()) for row in rows.values())
    primal = Fraction(mass, scale)
    dual = Fraction(sum(totals) - mass, scale)
    if primal != dual:
        raise RuntimeError(f"objective mismatch: primal {primal} != dual {dual}")
    alpha = {
        name: Fraction(total, scale) for name, total in zip(inst.men + inst.women, totals)
    }
    beta = dict.fromkeys(inst.edges, Fraction(0))
    for i, row in rows.items():
        for j, v in row.items():
            beta[(inst.men[i], inst.women[j])] = Fraction(v, scale)
    return DualCertificate(alpha, beta), primal, dual


# -- extreme points ------------------------------------------------------------


def vertices(inst: Instance, model: str = SUPER, cap: int = 8) -> list[dict]:
    """Every extreme point of the chosen system, by exact basis enumeration.

    Selects |E| constraints to hold with equality and solves the square
    system whenever it is uniquely solvable.  The solve runs in integers:
    fraction-free elimination, then back-substitution into numerators over
    one common denominator, which ``check_point``'s kernel tests in index
    space at that denominator.  Only the distinct solutions it accepts
    become ``Fraction``s, sorted by coordinate tuple.  ``cap`` guards the
    combinatorial blow-up.
    """
    if model not in (SUPER, STRONG):
        raise ValueError(f"unknown model {model!r}")
    edges = inst.edges
    nvars = len(edges)
    if nvars > cap:
        raise ValueError(f"|E| = {nvars} exceeds cap = {cap}")
    if nvars == 0:
        return [{}]  # zero-dimensional system: the empty vector is its vertex
    cells, rows = _constraint_rows(inst, model)
    pool = sorted(set(rows), reverse=True)
    offsets = _offsets(inst)
    found: set[tuple[int, tuple[int, ...]]] = set()
    pivots: list[tuple[int, list[int], int]] = []

    def solve() -> None:
        nums, den = _back_substitute(pivots, nvars)
        entries = [(i, j, v) for (i, j), v in zip(cells, nums) if v]
        if _feasible(inst, _index_sums(inst, offsets, den, entries), model):
            found.add((den, tuple(nums)))

    def descend(start: int, need: int) -> None:
        if need == 0:
            solve()
            return
        for idx in range(start, len(pool) - need + 1):
            reduced = _eliminate(pivots, *pool[idx])
            if reduced is None:
                continue
            pivots.append(reduced)
            descend(idx + 1, need - 1)
            pivots.pop()

    descend(0, nvars)
    solutions = sorted(tuple(Fraction(v, den) for v in nums) for den, nums in found)
    return [{edge: value for edge, value in zip(edges, x) if value} for x in solutions]


def _back_substitute(pivots, nvars: int) -> tuple[list[int], int]:
    """The solution of the square system ``_eliminate`` leaves, in integers.

    ``pivots`` holds ``nvars`` reduced rows, each zero in the pivot columns
    of the rows before it.  Returns (nums, den) with x[c] = nums[c] / den,
    den > 0 and gcd(den, *nums) == 1, so equal solutions compare equal.
    Walking the rows from the last, x[col] = (rhs * den - row . nums) /
    (row[col] * den): the pivot's share of that fraction in lowest terms
    multiplies the common denominator and every numerator found so far.
    No final reduction is needed: each step keeps gcd(den, *nums) == 1 and
    den > 0.  The share s = p // g is positive and coprime to the new
    numerator top // g, so gcd(den * s, *(v * s for v in nums), top // g)
    = gcd(s * gcd(den, *nums), top // g) = gcd(s, top // g) = 1.
    """
    nums = [0] * nvars
    den = 1
    for col, row, rhs in reversed(pivots):
        # nums[col] is still 0, so the dot product skips the pivot itself
        top = rhs * den - sum(map(mul, row, nums))
        p = row[col]
        g = gcd(top, p)
        if p < 0:
            g = -g
        p //= g
        if p != 1:
            nums = [v * p for v in nums]
            den *= p
        nums[col] = top // g
    return nums, den


def _eliminate(pivots, coeffs, rhs):
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


def _constraint_rows(inst: Instance, model: str):
    """The columns and rows of the chosen system, read off the rank maps.

    Returns (cells, rows): ``cells`` lists each column's edge (i, j) in
    ``inst.edges`` order, and ``rows`` holds (0/1 coefficient tuple, rhs)
    pairs: incident sums (at most 1), stability rows (at least 1),
    nonnegativity (at least 0)."""
    man_rank, woman_rank = inst._man_rank, inst._woman_rank
    col: dict[tuple[int, int], int] = {}
    for i, ranks in enumerate(man_rank):
        for j in ranks:
            col[i, j] = len(col)

    def row(cols, rhs):
        coeffs = [0] * len(col)
        for c in cols:
            coeffs[c] = 1
        return tuple(coeffs), rhs

    rows = [row([col[i, j] for j in ranks], 1) for i, ranks in enumerate(man_rank) if ranks]
    rows += [row([col[i, j] for i in ranks], 1) for j, ranks in enumerate(woman_rank) if ranks]
    for (i, j), c in col.items():
        rm, rw = man_rank[i][j], woman_rank[j][i]
        strict = [col[i, v] for v, r in man_rank[i].items() if r < rm]
        strict += [col[u, j] for u, r in woman_rank[j].items() if r < rw]
        if model == SUPER:
            rows.append(row(strict + [c], 1))
        else:
            rows.append(row(strict + [col[i, v] for v, r in man_rank[i].items() if r == rm], 1))
            rows.append(row(strict + [col[u, j] for u, r in woman_rank[j].items() if r == rw], 1))
    return list(col), rows + [row([c], 0) for c in range(len(col))]
