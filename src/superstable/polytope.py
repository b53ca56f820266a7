"""Exact rational verification of the super-stable and strongly stable
constraint systems, the self-duality certificate, and desk-scale vertex
enumeration.  No floating point anywhere in this module."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .instance import Instance, parse_edge_values
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


def load_point(inst: Instance, text: str) -> dict:
    """Parse a fractional edge vector from ``man woman rational`` lines."""
    return parse_edge_values(inst, text)


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


def _validated(inst: Instance, point) -> dict:
    for m, w in point:
        if not inst.is_edge(m, w):
            raise ValueError(f"point key ({m!r}, {w!r}) is not an edge")
    return dict(point)


def _tier_sums(inst: Instance, x):
    """Per agent: (per-tier sums, strict-prefix sums); prefix[r-1] covers all
    tiers strictly better than rank r, prefix[-1] is the vertex total."""
    tier_sums: dict[str, list] = {}
    prefix_sums: dict[str, list] = {}
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


def check_point(inst: Instance, point, model: str = SUPER) -> list[Violation]:
    """Exact constraint report for the chosen system; empty iff feasible.

    Super system: per-vertex incident sums at most 1 (1a); for every edge the
    strictly-better mass at both ends plus the edge itself reaches 1 (1b);
    nonnegativity (1c).  The strong system replaces (1b) by two constraints
    that count each endpoint's whole tie tier (3b, 3c).
    """
    if model not in (SUPER, STRONG):
        raise ValueError(f"unknown model {model!r}")
    x = _validated(inst, point)
    tier_sums, prefix = _tier_sums(inst, x)
    report: list[Violation] = []
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


def self_dual(inst: Instance, point):
    """Dual certificate induced by a feasible point, with both objectives.

    Every vertex's multiplier is its incident sum and every edge reuses the
    point itself.  Dual feasibility is verified constraint by constraint and
    the two objective values must agree exactly, which certifies the point
    as optimal for the maximize-total-mass program over the system.
    """
    if check_point(inst, point, SUPER):
        raise ValueError("point is not feasible for the super-stable system")
    x = _validated(inst, point)
    tier_sums, prefix = _tier_sums(inst, x)
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
