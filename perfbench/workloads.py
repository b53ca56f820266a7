"""The three workloads: their inputs, their operation mix, and their checks.

``run`` performs one pass through the public API, timing every call with
``Pass.call`` and returning the results; ``check`` compares results with
the oracle and with exact values derived from the generator, outside any
timed region, and returns one message per failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

import superstable as ss
from superstable import cli
from superstable.oracle import has_blocking_edge

import gen


def run_cli(argv):
    """``cli.main(argv)`` in process, returning (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def consume(matchings, p):
    """Drain an enumeration, recording time to the first matching and the
    delay before each later one."""
    out = []
    last = start = time.perf_counter()
    for matching in matchings:
        now = time.perf_counter()
        p.samples["enum_first_ms" if not out else "enum_delay_us"].append(
            (now - last) * (1e3 if not out else 1e6)
        )
        last = now
        out.append(matching)
    return out


def point(matching) -> dict:
    return dict.fromkeys(matching, 1)


def weight_of(weights, matching) -> int:
    return sum(weights.get(e, 0) for e in matching)


def last_of(first, rotations) -> frozenset:
    """The chain's far end: every rotation applied to the first matching."""
    current = set(first)
    for rot in rotations:
        current -= rot.removed
        current |= rot.added
    return frozenset(current)


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self._parsed: dict = {}
        self._verdicts: dict = {}

    def write(self, filename: str, text: str) -> str:
        path = self.workdir / filename
        path.write_text(text, encoding="utf-8")
        return str(path)

    def stable(self, inst_text: str, matching, criterion="super") -> bool:
        """Oracle verdict: ``matching`` is a matching of the instance with no
        blocking edge under ``criterion``.  Computed once per run."""
        key = (inst_text, matching, criterion)
        if key not in self._verdicts:
            if inst_text not in self._parsed:
                self._parsed[inst_text] = ss.parse_instance(inst_text)
            inst = self._parsed[inst_text]
            agents = [a for pair in matching for a in pair]
            self._verdicts[key] = (
                len(agents) == len(set(agents))
                and all(inst.is_edge(m, w) for m, w in matching)
                and not has_blocking_edge(inst, frozenset(matching), criterion)
            )
        return self._verdicts[key]


class ChainDense(Workload):
    """One strict random instance, 200 per side at density 0.5: the chain
    search and large ``Instance`` builds dominate; enumeration and
    fixed-edge work are absent, so a gain there must read "no change"."""

    name = "chain_dense"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, workdir)
        n, walk = (20, None) if tiny else (200, 2400)
        self.text, self.wtext, self.weights, self.edges = gen.strict_instance(seed, n, 0.5, walk)
        self.path = self.write("chain_dense.txt", self.text)

    def run(self, p):
        inst = p.call("parse", "instance", ss.parse_instance, self.text)
        weights = p.call("parse_weights", "instance", ss.load_weights, inst, self.wtext)
        men = p.call("solve_men", "stability", ss.optimal_super_stable, inst, "men")
        women = p.call("solve_women", "stability", ss.optimal_super_stable, inst, "women")
        first, poset = p.call("build_poset", "lattice", ss.build_poset, inst)
        best, total = p.call("max_weight", "lattice", ss.max_weight, inst, weights)
        x = point(best)
        reports = [
            p.call(f"check_point_{model}", "polytope", ss.check_point, inst, x, model)
            for model in ("super", "strong")
        ]
        _, primal, dual = p.call("self_dual", "polytope", ss.self_dual, inst, x)
        shown = p.call("cli_rotations", "cli", run_cli, ["rotations", self.path])
        return {
            "edges": len(inst.edges),
            "solves": (men, women),
            "posets": [(first, poset)],
            "best": [(best, total)],
            "reports": reports,
            "objectives": [(primal, dual)],
            "cli": shown,
        }

    def check(self, r):
        fails = []
        men, women = r["solves"]
        (first, poset), = r["posets"]
        (best, total), = r["best"]
        if r["edges"] != self.edges:
            fails.append(f"parse: {r['edges']} edges, generated {self.edges}")
        for label, matching in (("solve men", men), ("solve women", women), ("max_weight", best)):
            if matching is None or not self.stable(self.text, matching):
                fails.append(f"{label}: answer is not super-stable")
        if first != men or last_of(first, poset.rotations) != women:
            fails.append("build_poset: chain endpoints differ from the two solves")
        if total != weight_of(self.weights, best) or total < max(
            weight_of(self.weights, men), weight_of(self.weights, women)
        ):
            fails.append("max_weight: total is wrong or beaten by a solve")
        fails += [f"check_point: {v}" for report in r["reports"] for v in report[:1]]
        fails += objective_failures(r["objectives"], r["best"])
        fails += rotations_cli_failures(self, self.text, r["cli"], first, poset, women)
        return fails


def rotations_cli_failures(workload, text, shown, first, poset, last):
    """Checks on ``superstable rotations`` output against the library's poset;
    a seeded sample of the chain's matchings goes to the oracle."""
    code, out = shown
    try:
        doc = json.loads(out)
        sequence = [frozenset(map(tuple, m["pairs"])) for m in doc["sequence"]]
    except (ValueError, KeyError, TypeError) as err:
        return [f"cli rotations: unreadable output ({err})"]
    fails = []
    if code != 0 or sequence[0] != first or sequence[-1] != last:
        fails.append("cli rotations: chain endpoints differ from the library")
    if len(doc["rotations"]) != len(poset.rotations) or doc["arcs"] != [
        list(a) for a in sorted(poset.arcs)
    ]:
        fails.append("cli rotations: rotations or arcs differ from the library")
    if any(a == b for a, b in zip(sequence, sequence[1:])):
        fails.append("cli rotations: consecutive chain matchings are equal")
    for matching in random.Random(workload.seed).sample(sequence, min(3, len(sequence))):
        if not workload.stable(text, matching):
            fails.append("cli rotations: a chain matching is not super-stable")
    return fails


def objective_failures(objectives, best):
    return [
        f"self_dual: primal {primal} / dual {dual} for {len(matching)} pairs"
        for (primal, dual), (matching, _) in zip(objectives, best)
        if not primal == dual == len(matching)
    ]


class LatticeWide(Workload):
    """A disjoint union of small tied blocks with two or three super-stable
    matchings each: a huge lattice over a cheap chain, so enumeration,
    per-matching queries and the min-cut dominate.  Ties are exercised."""

    name = "lattice_wide"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, workdir)
        self.u = gen.block_union(seed, 3, 1) if tiny else gen.block_union(seed, 54, 6)
        self.limit = 10 if tiny else 100
        self.path = self.write("lattice_wide.txt", self.u.text)
        self.block_of = {a: i for i, b in enumerate(self.u.blocks) for a in b.men}
        self.block_sets = [set(b.stable) for b in self.u.blocks]

    def run(self, p):
        inst = p.call("parse", "instance", ss.parse_instance, self.u.text)
        weights = p.call("parse_weights", "instance", ss.load_weights, inst, self.u.weights_text)
        men = p.call("solve_men", "stability", ss.optimal_super_stable, inst, "men")
        women = p.call("solve_women", "stability", ss.optimal_super_stable, inst, "women")
        first, poset = p.call("build_poset", "lattice", ss.build_poset, inst)
        matchings = ss.enumerate_all(inst, self.limit)  # a generator: no work until drained
        listed = p.call("enumerate", "lattice", consume, matchings, p)
        p.counts["enumerated"] = len(listed)
        blocking, reports, joins = [], [], []
        previous = listed[0]
        for matching in listed:
            blocking.append(p.call("blocking_edges", "stability", ss.blocking_edges, inst, matching))
            x = point(matching)
            for model in ("super", "strong"):
                reports.append(p.call(f"check_point_{model}", "polytope", ss.check_point, inst, x, model))
            joins.append(p.call("join_meet", "lattice", ss.join_meet, inst, matching, previous))
            previous = matching
        best, total = p.call("max_weight", "lattice", ss.max_weight, inst, weights)
        _, primal, dual = p.call("self_dual", "polytope", ss.self_dual, inst, point(best))
        argv = ["enumerate", self.path, "--limit", str(self.limit)]
        shown = p.call("cli_enumerate", "cli", run_cli, argv)
        return {
            "edges": len(inst.edges),
            "solves": (men, women),
            "posets": [(first, poset)],
            "listed": listed,
            "blocking": blocking,
            "reports": reports,
            "joins": joins,
            "best": [(best, total)],
            "objectives": [(primal, dual)],
            "cli": shown,
        }

    def in_lattice(self, matching) -> bool:
        """Exact membership: each block's share is one of its super-stable
        matchings (the union's super-stable set is the product of these)."""
        parts = [set() for _ in self.block_sets]
        for m, w in matching:
            parts[self.block_of[m]].add((m, w))
        return all(frozenset(part) in s for part, s in zip(parts, self.block_sets))

    def check(self, r):
        u = self.u
        fails = []
        men, women = r["solves"]
        (first, poset), = r["posets"]
        (best, total), = r["best"]
        if r["edges"] != u.edges:
            fails.append(f"parse: {r['edges']} edges, generated {u.edges}")
        if men != u.man_optimal or women != u.woman_optimal:
            fails.append("solve: differs from the per-block brute-force optimum")
        if first != men or last_of(first, poset.rotations) != women:
            fails.append("build_poset: chain endpoints differ from the two solves")
        if len(poset.rotations) != u.rotations or len(poset.arcs) != u.arcs:
            fails.append("build_poset: rotation or arc count differs from the block shapes")
        listed = r["listed"]
        if len(listed) != self.limit or len(set(listed)) != len(listed):
            fails.append("enumerate: wrong count or repeated matchings")
        answers = listed + [m for pair in r["joins"] for m in pair] + [best]
        fails += [
            "a returned matching is not super-stable"
            for m in answers
            if not (self.in_lattice(m) and self.stable(u.text, m))
        ]
        fails += ["blocking_edges: non-empty on a super-stable matching" for b in r["blocking"] if b]
        fails += ["check_point: violation on a super-stable matching" for v in r["reports"] if v]
        if total != u.max_weight or weight_of(u.weights, best) != total:
            fails.append(f"max_weight: total {total}, brute force gives {u.max_weight}")
        fails += objective_failures(r["objectives"], r["best"])
        code, out = r["cli"]
        try:
            shown = [frozenset(map(tuple, json.loads(line)["pairs"])) for line in out.splitlines()]
        except (ValueError, KeyError, TypeError) as err:
            shown = f"unreadable output ({err})"
        if code != 0 or shown != listed:
            fails.append("cli enumerate: output differs from the library")
        return fails


class DeskScale(Workload):
    """Exhaustive small-instance questions: the irreducible family on a
    strict instance and on a tied block union, exact vertex enumeration,
    and both solves on many tiny tied instances (many infeasible).  Stresses
    thousands of small ``Instance`` builds and re-solves."""

    name = "desk_scale"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, workdir)
        n, pairs, chains, nvert, ntiny = (6, 2, 1, 1, 12) if tiny else (20, 9, 3, 3, 200)
        text, wtext, weights, edges = gen.strict_instance(seed * 8 + 1, n, 0.5)
        union = gen.block_union(seed * 8 + 2, pairs, chains)
        self.big = [
            (text, wtext, weights, None),
            (union.text, union.weights_text, union.weights, union),
        ]
        self.vert = gen.vertex_instances(seed * 8 + 3, nvert)
        self.tiny = gen.tiny_instances(seed * 8 + 4, ntiny)
        self.edges = edges + union.edges
        self.path = self.write("desk_scale.txt", union.text)

    def run(self, p):
        insts = []
        for text, wtext, _, _ in self.big:
            inst = p.call("parse", "instance", ss.parse_instance, text)
            insts.append((inst, p.call("parse_weights", "instance", ss.load_weights, inst, wtext)))
        verts = [p.call("parse", "instance", ss.parse_instance, v.text) for v in self.vert]
        tiny = [p.call("parse", "instance", ss.parse_instance, t.text) for t in self.tiny]
        families = [
            p.call("irreducible_poset", "fixed_edge", ss.irreducible_poset, inst)
            for inst, _ in insts
        ]
        posets = [p.call("build_poset", "lattice", ss.build_poset, inst) for inst, _ in insts]
        best = [p.call("max_weight", "lattice", ss.max_weight, inst, w) for inst, w in insts]
        reports, objectives = [], []
        for (inst, _), (matching, _) in zip(insts, best):
            x = point(matching)
            for model in ("super", "strong"):
                reports.append(p.call(f"check_point_{model}", "polytope", ss.check_point, inst, x, model))
            objectives.append(p.call("self_dual", "polytope", ss.self_dual, inst, x)[1:])
        vertices = [
            (
                p.call("vertices_super", "polytope", ss.vertices, inst, "super"),
                p.call("vertices_strong", "polytope", ss.vertices, inst, "strong"),
            )
            for inst in verts
        ]
        solves = [
            (
                p.call("solve_men", "stability", ss.optimal_super_stable, inst, "men"),
                p.call("solve_women", "stability", ss.optimal_super_stable, inst, "women"),
            )
            for inst in tiny
        ]
        shown = p.call("cli_rotations", "cli", run_cli, ["rotations", self.path])
        return {
            "edges": sum(len(inst.edges) for inst, _ in insts),
            "families": [tuple(e.matching for e in f.elements) for f in families],
            "posets": posets,
            "best": best,
            "reports": reports,
            "objectives": objectives,
            "vertices": vertices,
            "solves": solves,
            "cli": shown,
        }

    def check(self, r):
        fails = []
        if r["edges"] != self.edges:
            fails.append(f"parse: {r['edges']} edges, generated {self.edges}")
        for (text, _, weights, union), family, (first, poset), (best, total) in zip(
            self.big, r["families"], r["posets"], r["best"]
        ):
            fails += [
                "irreducible_poset: an element is not super-stable"
                for m in family
                if not self.stable(text, m)
            ]
            if len(family) != len(poset.rotations) + 1:
                fails.append(
                    f"irreducible_poset: {len(family)} elements for {len(poset.rotations)} rotations"
                )
            ends = (first, last_of(first, poset.rotations))
            if not all(self.stable(text, m) for m in ends) or (
                union is not None and ends != (union.man_optimal, union.woman_optimal)
            ):
                fails.append("build_poset: a chain endpoint is wrong")
            if not self.stable(text, best) or weight_of(weights, best) != total:
                fails.append("max_weight: answer not super-stable or total miscounted")
            if total < max(weight_of(weights, m) for m in family) or (
                union is not None and total != union.max_weight
            ):
                fails.append("max_weight: total is not the maximum")
        fails += [f"check_point: {v}" for report in r["reports"] for v in report[:1]]
        fails += objective_failures(r["objectives"], r["best"])
        for tiny, (points_super, points_strong) in zip(self.vert, r["vertices"]):
            for model, points in (("super", points_super), ("strong", points_strong)):
                for x in points:
                    if set(x.values()) - {1} or not self.stable(tiny.text, frozenset(x), model):
                        fails.append(f"vertices {model}: a vertex is fractional or not stable")
            if {frozenset(x) for x in points_super} != set(tiny.super_stable):
                fails.append("vertices super: differs from the brute-force super-stable set")
        for tiny, (men, women) in zip(self.tiny, r["solves"]):
            if men != tiny.man_optimal or women != tiny.woman_optimal:
                fails.append("solve: differs from the brute-force side optimum")
        (first, poset), (text, _, _, union) = r["posets"][1], self.big[1]
        fails += rotations_cli_failures(self, text, r["cli"], first, poset, union.woman_optimal)
        return fails
