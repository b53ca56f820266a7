"""Exact rational verification of the super-stable and strongly stable
constraint systems, the self-duality certificate, and desk-scale vertex
enumeration.  No floating point anywhere in this module."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, inf, lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .instance import Instance
from .stability import STRONG, SUPER


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
    coefficients = [Fraction(c) for c in coefficients]
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

    Returns (scale, rows, men, women, negative).  ``scale`` is the lcm of
    the denominators of the nonzero entries and ``rows`` maps each man index
    i with such an entry to a dict from woman index j to scale * x(m_i, w_j).
    ``men`` (resp. ``women``) is a pair (prefix, off) of flat lists: agent a
    owns slots off[a] .. off[a] + its tier count, and prefix[off[a] + r] is
    scale times its mass on tiers 1..r, so off[a] + r - 1 holds the
    strictly-better mass at rank r and off[a + 1] - 1 the vertex total.
    ``negative`` lists, ascending, the men with a negative entry.

    Each entry adds its value at its rank's slot and takes it off again at
    the next agent's first slot, so one ``accumulate`` over each side's list
    leaves every agent's prefix starting from 0.  The cost is O(|point|)
    plus one slot per tier and per agent, in two lists per side.
    """
    midx, widx = inst._midx, inst._widx
    man_rank, woman_rank = inst._man_rank, inst._woman_rank
    entries = []
    negative = set()
    for (m, w), value in point.items():
        i, j = midx.get(m), widx.get(w)
        if i is None or j is None or j not in man_rank[i]:
            raise ValueError(f"point key ({m!r}, {w!r}) is not an edge")
        if value:
            q = value if isinstance(value, (int, Fraction)) else Fraction(value)
            entries.append((i, j, q))
            if q < 0:
                negative.add(i)
    scale = lcm(*(q.denominator for _, _, q in entries))
    mo, wo = _offsets(inst._man_tiers), _offsets(inst._woman_tiers)
    pm, pw = [0] * (mo[-1] + 1), [0] * (wo[-1] + 1)
    rows: dict[int, dict[int, int]] = {}
    for i, j, q in entries:
        v = q.numerator * (scale // q.denominator)
        row = rows.get(i)
        if row is None:
            rows[i] = row = {}
        row[j] = v
        pm[mo[i] + man_rank[i][j]] += v
        pm[mo[i + 1]] -= v
        pw[wo[j] + woman_rank[j][i]] += v
        pw[wo[j + 1]] -= v
    return scale, rows, (list(accumulate(pm)), mo), (list(accumulate(pw)), wo), sorted(negative)


def _offsets(tiers) -> list[int]:
    """Each agent's first slot in a flat prefix list, and the end: an agent
    with t tiers owns t + 1 slots."""
    return list(accumulate(map((1).__add__, map(len, tiers)), initial=0))


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

    Sums come from the point's nonzero entries in integers scaled by their
    common denominator, so every edge constraint is a few integer lookups.
    With no negative entry, a man's edges past the point where his
    strictly-better mass reaches 1 hold, so his list is walked only that
    far: a prefix walk per man, O(|E|) at worst, plus the size of the point.
    """
    if model not in (SUPER, STRONG):
        raise ValueError(f"unknown model {model!r}")
    return _violations(inst, _tier_sums(inst, point), model)


def _violations(inst: Instance, sums, model: str) -> list[Violation]:
    """``check_point``'s report, from the output of ``_tier_sums``."""
    scale, rows, men, women, negative = sums
    report: list[Violation] = []
    vertex_tag = "1a" if model == SUPER else "3a"
    nonneg_tag = "1c" if model == SUPER else "3d"
    for name, total in zip(inst.men + inst.women, _totals(men) + _totals(women)):
        if total > scale:
            report.append(Violation(vertex_tag, name, Fraction(total, scale), "<= 1"))
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
                    edge = (inst.men[i], inst.women[j])
                    report.append(Violation("1b", edge, Fraction(lhs, scale), ">= 1"))
            else:
                # the strictly-better mass at both ends plus one end's tie tier
                lhs = pm[om + rm + 1] + pw[ow]
                if lhs < scale:
                    edge = (inst.men[i], inst.women[j])
                    report.append(Violation("3b", edge, Fraction(lhs, scale), ">= 1"))
                lhs = pm[om + rm] + pw[ow + 1]
                if lhs < scale:
                    edge = (inst.men[i], inst.women[j])
                    report.append(Violation("3c", edge, Fraction(lhs, scale), ">= 1"))
    for i in negative:
        row = rows[i]
        for j in inst._man_rank[i]:
            if row.get(j, 0) < 0:
                edge = (inst.men[i], inst.women[j])
                report.append(Violation(nonneg_tag, edge, Fraction(row[j], scale), ">= 0"))
    return report


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
    if _violations(inst, sums, SUPER):
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

    Selects |E| constraints to hold with equality, solves the square rational
    system whenever it is uniquely solvable, and keeps feasible solutions,
    deduplicated.  ``cap`` guards the combinatorial blow-up.
    """
    if model not in (SUPER, STRONG):
        raise ValueError(f"unknown model {model!r}")
    nvars = len(inst.edges)
    if nvars > cap:
        raise ValueError(f"|E| = {nvars} exceeds cap = {cap}")
    if nvars == 0:
        return [{}]  # zero-dimensional system: the empty vector is its vertex
    feasible_rows = _constraint_rows(inst, model)
    pool = sorted({(coeffs, rhs) for coeffs, rhs, _ in feasible_rows}, reverse=True)
    found: dict[tuple, dict] = {}
    pivots: list[tuple[int, list[int], int]] = []

    def solve() -> None:
        x: list[Fraction] = [Fraction(0)] * nvars
        for col, row, rhs in reversed(pivots):
            acc = Fraction(rhs)
            for c in range(nvars):
                if c != col and row[c]:
                    acc -= row[c] * x[c]
            x[col] = acc / row[col]
        for coeffs, rhs, sense in feasible_rows:
            value = sum(c * xi for c, xi in zip(coeffs, x) if c)
            if (sense == "le" and value > rhs) or (sense == "ge" and value < rhs):
                return
        key = tuple(x)
        if key not in found:
            found[key] = {
                edge: x[i] for i, edge in enumerate(inst.edges) if x[i] != 0
            }

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
    return [found[key] for key in sorted(found)]


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
    """Rows (integer coefficient tuple, rhs, sense) of the chosen system."""
    nvars = len(inst.edges)
    at = {edge: i for i, edge in enumerate(inst.edges)}
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
    for m, w in inst.edges:
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
