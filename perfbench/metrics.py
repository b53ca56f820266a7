"""The metric catalog and how each metric is derived from a run.

Every metric the benchmark can print is listed here once, with its unit,
its direction, the layer (module) it belongs to, the end-to-end metric it
should move and the workloads where it applies.  ``BENCHMARK.json`` names
the subset that every workload reports in its result line; the rest
are printed in the human-readable report (``n/a`` where a workload does not
exercise them).
"""

from __future__ import annotations

from typing import NamedTuple

from measure import high_percentile, median

ALL = ("chain_dense", "lattice_wide", "desk_scale")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str  # "end_to_end" or the module name
    moves: tuple  # end-to-end metrics this one should move
    workloads: tuple  # where it applies


def _m(name, unit, better, layer, moves=(), workloads=ALL):
    return Metric(name, unit, better, layer, tuple(moves), tuple(workloads))


CATALOG = [
    # -- end to end (untraced passes) --------------------------------------
    _m("setup_s", "s", "lower", "end_to_end"),
    _m("solve_s", "s", "lower", "end_to_end"),
    _m("poset_s", "s", "lower", "end_to_end"),
    _m("maxweight_s", "s", "lower", "end_to_end"),
    _m("wall_s", "s", "lower", "end_to_end"),
    _m("peak_rss_mb", "MiB", "lower", "end_to_end"),
    _m("enum_per_s", "matchings/s", "higher", "end_to_end", workloads=["lattice_wide"]),
    _m("queries_per_s", "matchings/s", "higher", "end_to_end", workloads=["lattice_wide"]),
    _m("irreducible_s", "s", "lower", "end_to_end", workloads=["desk_scale"]),
    _m("vertices_s", "s", "lower", "end_to_end", workloads=["desk_scale"]),
    _m("error_rate", "failed/attempted", "lower", "end_to_end"),
    # -- instance -----------------------------------------------------------
    _m("instance.parse_s", "s", "lower", "instance", ["setup_s"]),
    _m("instance.edges", "count", "higher", "instance", ["setup_s"]),
    _m("instance.self_s", "s", "lower", "instance", ["setup_s", "wall_s"]),
    # -- stability ----------------------------------------------------------
    _m("stability.solve_men_s", "s", "lower", "stability", ["solve_s"]),
    _m("stability.solve_women_s", "s", "lower", "stability", ["solve_s"]),
    _m("stability.blocking_edges_us.p50", "us", "lower", "stability", ["queries_per_s", "solve_s"]),
    _m("stability.blocking_edges_us.high", "us", "lower", "stability", ["queries_per_s"], ["lattice_wide", "desk_scale"]),
    _m("stability.self_s", "s", "lower", "stability", ["solve_s", "wall_s"]),
    # -- fixed_edge ---------------------------------------------------------
    _m("fixed_edge.calls", "count", "lower", "fixed_edge", ["irreducible_s"]),
    _m("fixed_edge.optimal_with_edge_ms.p50", "ms", "lower", "fixed_edge", ["irreducible_s"], ["desk_scale"]),
    _m("fixed_edge.optimal_with_edge_ms.high", "ms", "lower", "fixed_edge", ["irreducible_s"], ["desk_scale"]),
    _m("fixed_edge.reduce_for_edge_ms.p50", "ms", "lower", "fixed_edge", ["irreducible_s"], ["desk_scale"]),
    _m("fixed_edge.reduce_for_edge_ms.high", "ms", "lower", "fixed_edge", ["irreducible_s"], ["desk_scale"]),
    _m("fixed_edge.p_set_ms.p50", "ms", "lower", "fixed_edge", ["irreducible_s"], ["desk_scale"]),
    _m("fixed_edge.useful_ratio", "elements/calls", "higher", "fixed_edge", ["irreducible_s"], ["desk_scale"]),
    _m("fixed_edge.self_s", "s", "lower", "fixed_edge", ["irreducible_s"], ["desk_scale"]),
    # -- rotations ----------------------------------------------------------
    _m("rotations.maximal_sequence_s", "s", "lower", "rotations", ["poset_s", "maxweight_s"]),
    _m("rotations.precedence_digraph_s", "s", "lower", "rotations", ["poset_s"]),
    _m("rotations.ms_per_rotation", "ms", "lower", "rotations", ["poset_s"]),
    _m("rotations.chain_len", "count", "higher", "rotations", ["poset_s"]),
    _m("rotations.rotations", "count", "higher", "rotations", ["poset_s"]),
    _m("rotations.arcs", "count", "higher", "rotations", ["poset_s"]),
    _m("rotations.self_s", "s", "lower", "rotations", ["poset_s", "maxweight_s"]),
    # -- lattice ------------------------------------------------------------
    _m("lattice.build_poset_s", "s", "lower", "lattice", ["poset_s"]),
    _m("lattice.mincut_s", "s", "lower", "lattice", ["maxweight_s"]),
    _m("lattice.matching_of_us.p50", "us", "lower", "lattice", ["enum_per_s", "maxweight_s"]),
    _m("lattice.enum_first_ms", "ms", "lower", "lattice", ["enum_per_s"], ["lattice_wide"]),
    _m("lattice.enum_delay_us.p50", "us", "lower", "lattice", ["enum_per_s"], ["lattice_wide"]),
    _m("lattice.enum_delay_us.high", "us", "lower", "lattice", ["enum_per_s"], ["lattice_wide"]),
    _m("lattice.closed_subsets_per_s", "subsets/s", "higher", "lattice", ["enum_per_s"], ["lattice_wide"]),
    _m("lattice.join_meet_us.p50", "us", "lower", "lattice", ["queries_per_s"], ["lattice_wide"]),
    _m("lattice.self_s", "s", "lower", "lattice", ["poset_s", "maxweight_s", "enum_per_s"]),
    # -- polytope -----------------------------------------------------------
    _m("polytope.check_point_super_us.p50", "us", "lower", "polytope", ["queries_per_s", "wall_s"]),
    _m("polytope.check_point_strong_us.p50", "us", "lower", "polytope", ["queries_per_s", "wall_s"]),
    _m("polytope.self_dual_s", "s", "lower", "polytope", ["wall_s"]),
    _m("polytope.vertices_super_s", "s", "lower", "polytope", ["vertices_s"], ["desk_scale"]),
    _m("polytope.vertices_strong_s", "s", "lower", "polytope", ["vertices_s"], ["desk_scale"]),
    _m("polytope.vertices", "count", "higher", "polytope", ["vertices_s"], ["desk_scale"]),
    _m("polytope.self_s", "s", "lower", "polytope", ["wall_s", "queries_per_s", "vertices_s"]),
    # -- cli ----------------------------------------------------------------
    _m("cli.main_s", "s", "lower", "cli", ["wall_s"]),
    _m("cli.rotations_s", "s", "lower", "cli", ["wall_s"], ["chain_dense", "desk_scale"]),
    _m("cli.enumerate_s", "s", "lower", "cli", ["wall_s"], ["lattice_wide"]),
    _m("cli.self_s", "s", "lower", "cli", ["wall_s"]),
    # -- the tracing itself ---------------------------------------------------
    _m("trace.overhead_s", "s", "lower", "trace", ["wall_s"]),
]

BY_NAME = {m.name: m for m in CATALOG}

QUERY_KEYS = ("blocking_edges", "check_point_super", "check_point_strong", "join_meet")


def _med(passes, fn):
    values = [v for v in (fn(p) for p in passes) if v is not None]
    return median(values)


def _ratio(num, den):
    return num / den if den else None


def end_to_end(run, error_rate: float, peak_rss_mb: float) -> dict:
    """End-to-end values (medians over untraced passes); None = not applicable."""
    passes = run.plain
    has = lambda key: any(key in p.times for p in passes)  # noqa: E731
    out = {
        "setup_s": _med(passes, lambda p: p.total("parse")),
        "solve_s": _med(passes, lambda p: p.total("solve_men", "solve_women")),
        "poset_s": _med(passes, lambda p: p.total("build_poset")),
        "maxweight_s": _med(passes, lambda p: p.total("max_weight")),
        "wall_s": _med(passes, lambda p: p.wall),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": error_rate,
    }
    if has("enumerate"):
        out["enum_per_s"] = _med(passes, lambda p: _ratio(p.counts["enumerated"], p.total("enumerate")))
        out["queries_per_s"] = _med(passes, lambda p: _ratio(p.counts["enumerated"], p.total(*QUERY_KEYS)))
    if has("irreducible_poset"):
        out["irreducible_s"] = _med(passes, lambda p: p.total("irreducible_poset"))
        out["vertices_s"] = _med(passes, lambda p: p.total("vertices_super", "vertices_strong"))
    return out


def per_layer(run, results) -> tuple[dict, dict]:
    """Per-layer values from the traced passes and the last results, plus
    notes (percentile labels, sample counts, ratio bases) for the report."""
    spans = run.tracer.by_pass()
    rows = []  # per traced pass: dict of additive values
    pooled: dict[str, list] = {}

    def pool(key, values):
        pooled.setdefault(key, []).extend(values)

    for i, p in enumerate(run.traced):
        s = spans[i]

        def dur(name, parent=None):
            return sum(x.duration for x in s if x.name == name and (parent is None or x.parent == parent))

        def self_of(layer):
            return sum(x.self_time for x in s if x.name.split(".")[0] == layer)

        sizes = sum(x.size or 0 for x in s if x.name == "rotations.maximal_sequence")
        row = {
            "instance.parse_s": p.total("parse"),
            "stability.solve_men_s": p.total("solve_men"),
            "stability.solve_women_s": p.total("solve_women"),
            "rotations.maximal_sequence_s": dur("rotations.maximal_sequence"),
            "rotations.precedence_digraph_s": dur("rotations.precedence_digraph"),
            "rotations.ms_per_rotation": _ratio(1e3 * dur("rotations.maximal_sequence"), sizes),
            "lattice.build_poset_s": p.total("build_poset"),
            "lattice.mincut_s": dur("lattice.max_weight")
            - dur("lattice.build_poset", parent="lattice.max_weight"),
            "polytope.self_dual_s": p.total("self_dual"),
            "cli.main_s": dur("cli.main"),
            "fixed_edge.calls": sum(1 for x in s if x.name == "fixed_edge.optimal_with_edge"),
        }
        for layer in ("instance", "stability", "rotations", "lattice", "polytope", "cli"):
            row[f"{layer}.self_s"] = self_of(layer)
        if "irreducible_poset" in p.times:
            row["fixed_edge.self_s"] = self_of("fixed_edge")
            row["polytope.vertices_super_s"] = p.total("vertices_super")
            row["polytope.vertices_strong_s"] = p.total("vertices_strong")
        if "enumerate" in p.times:
            dfs = sum(x.self_time for x in s if x.name == "lattice.op.enumerate")
            row["lattice.closed_subsets_per_s"] = _ratio(p.counts["enumerated"], dfs)
            row["cli.enumerate_s"] = p.total("cli_enumerate")
            pool("lattice.enum_first_ms", p.samples["enum_first_ms"])
            pool("lattice.enum_delay_us", p.samples["enum_delay_us"])
            pool("lattice.join_meet_us", [t * 1e6 for t in p.times["join_meet"]])
        if "cli_rotations" in p.times:
            row["cli.rotations_s"] = p.total("cli_rotations")
        rows.append(row)
        for key in ("check_point_super", "check_point_strong"):
            pool(f"polytope.{key}_us", [t * 1e6 for t in p.times[key]])
        for name, scale, key in (
            ("stability.blocking_edges", 1e6, "stability.blocking_edges_us"),
            ("lattice.matching_of", 1e6, "lattice.matching_of_us"),
            ("fixed_edge.optimal_with_edge", 1e3, "fixed_edge.optimal_with_edge_ms"),
            ("fixed_edge.reduce_for_edge", 1e3, "fixed_edge.reduce_for_edge_ms"),
            ("fixed_edge.p_set", 1e3, "fixed_edge.p_set_ms"),
        ):
            pool(key, [x.duration * scale for x in s if x.name == name])

    out = {key: _med(rows, lambda r, k=key: r.get(k)) for key in set().union(*rows)}
    notes = {}
    for key, values in pooled.items():
        if not values:
            continue
        if key == "lattice.enum_first_ms":
            out[key] = median(values)
            continue
        out[f"{key}.p50"] = median(values)
        notes[f"{key}.p50"] = f"n={len(values)}"
        high = high_percentile(values)
        if high is not None:
            out[f"{key}.high"] = high[1]
            notes[f"{key}.high"] = f"{high[0]}, n={len(values)}"
    values, bases = counts(results)
    out.update(values)
    notes.update(bases)
    plain = median([p.wall for p in run.plain])
    out["trace.overhead_s"] = median([p.wall for p in run.traced]) - plain
    notes["trace.overhead_s"] = f"{100 * out['trace.overhead_s'] / plain:+.1f}% of untraced wall_s {plain:.4f} s"
    return out, notes


def counts(results) -> tuple[dict, dict]:
    """Exact counts that must repeat for a given seed, with ratio bases."""
    posets = [poset for _, poset in results["posets"]]
    out = {
        "instance.edges": results["edges"],
        "rotations.chain_len": sum(len(p.rotations) + 1 for p in posets),
        "rotations.rotations": sum(len(p.rotations) for p in posets),
        "rotations.arcs": sum(len(p.arcs) for p in posets),
    }
    notes = {}
    if "families" in results:
        elements = sum(len(f) for f in results["families"])
        out["fixed_edge.useful_ratio"] = elements / results["edges"]
        notes["fixed_edge.useful_ratio"] = f"{elements} elements / {results['edges']} calls"
        out["polytope.vertices"] = sum(len(a) + len(b) for a, b in results["vertices"])
    return out, notes
