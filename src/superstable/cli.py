"""Command-line interface.

Exit codes: 0 on success (a NONE answer is a success), 1 on usage errors,
2 on unreadable or malformed input files, 141 (128 + SIGPIPE, the shell's
status for a process whose reader stopped) when stdout closes before the
output is written; nothing is printed on stderr then.  Analytic output goes
to stdout as JSON (or DOT with --dot); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from pathlib import Path

from .fixed_edge import irreducible_poset
from .instance import (
    ParseError,
    parse_edge_values,
    parse_instance,
    random_instance,
    serialize_instance,
)
from .lattice import _matchings, build_poset, enumerate_all, max_weight
from .oracle import brute_stable_set
from .polytope import check_point, vertices
from .stability import (
    MEN,
    NoSuperStableMatching,
    WOMEN,
    matching_to_json,
    optimal_super_stable,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a count >= 1, got {value}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in [0, 1], got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="superstable",
        description="Super-stable matchings in bipartite preference systems with ties.",
    )
    shown = "{solve,enumerate,rotations,irreducible,maxweight,check-polytope,vertices,gen}"
    sub = parser.add_subparsers(dest="command", metavar=shown)

    p = sub.add_parser("solve", help="side-optimal super-stable matching")
    p.add_argument("file")
    p.add_argument("--side", choices=["men", "women"], default="men")

    p = sub.add_parser("enumerate", help="stream every super-stable matching")
    p.add_argument("file")
    p.add_argument("--limit", type=_count, default=None)

    p = sub.add_parser("rotations", help="maximal chain, rotations, precedence arcs")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("irreducible", help="edge-minimal matchings and their order")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("maxweight", help="maximum-weight super-stable matching")
    p.add_argument("file")
    p.add_argument("--weights", required=True)

    p = sub.add_parser("check-polytope", help="verify a fractional point exactly")
    p.add_argument("file")
    p.add_argument("--point", required=True)
    p.add_argument("--model", choices=["super", "strong"], default="super")

    p = sub.add_parser("vertices", help="enumerate extreme points exactly")
    p.add_argument("file")
    p.add_argument("--model", choices=["super", "strong"], default="super")
    p.add_argument("--cap", type=_count, default=8)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--men", type=_positive, required=True)
    p.add_argument("--women", type=_positive, required=True)
    p.add_argument("--density", type=_probability, default=0.5)
    p.add_argument("--tie-prob", type=_probability, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("oracle", help="brute-force super-stable set (debugging)")
    p.add_argument("file")

    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise _InputError(f"{path}: {getattr(err, 'strerror', None) or err}") from None


class _InputError(Exception):
    pass


def _load(path: str):
    try:
        return parse_instance(_read(path))
    except ParseError as err:
        raise _InputError(f"{path}: {err}") from None


def _emit(document) -> None:
    print(json.dumps(document, indent=2))


def _cmd_solve(args) -> int:
    inst = _load(args.file)
    side = MEN if args.side == "men" else WOMEN
    _emit(matching_to_json(inst, optimal_super_stable(inst, side)))
    return 0


def _cmd_enumerate(args) -> int:
    inst = _load(args.file)
    for matching in enumerate_all(inst, limit=args.limit):
        print(json.dumps(matching_to_json(inst, matching)))
    return 0


def _cmd_rotations(args) -> int:
    inst = _load(args.file)
    built = build_poset(inst)
    if built is None:
        sequence, rotations, arcs = [], (), []
    else:
        first, poset = built
        rotations, arcs = poset.rotations, sorted(poset.arcs)
        # the enumeration's first descent is the chain the poset was read off
        sequence = list(islice(_matchings(inst, first, poset), len(rotations) + 1))
    if args.dot:
        nodes = []
        for k, rot in enumerate(rotations):
            removed = " ".join(f"-({m},{w})" for m, w in sorted(rot.removed))
            added = " ".join(f"+({m},{w})" for m, w in sorted(rot.added))
            nodes.append((f"r{k}", f"{k}: {removed} {added}"))
        print(_dot("rotations", nodes, [(f"r{i}", f"r{j}") for i, j in arcs]), end="")
        return 0
    _emit(
        {
            "sequence": [matching_to_json(inst, m) for m in sequence],
            "rotations": [
                {
                    "index": k,
                    "removed": matching_to_json(inst, rot.removed)["pairs"],
                    "added": matching_to_json(inst, rot.added)["pairs"],
                }
                for k, rot in enumerate(rotations)
            ],
            "arcs": [list(arc) for arc in arcs],
        }
    )
    return 0


def _cmd_irreducible(args) -> int:
    inst = _load(args.file)
    try:
        poset = irreducible_poset(inst)
    except NoSuperStableMatching:
        if args.dot:
            print(_dot("irreducible", [], []), end="")
        else:
            _emit({"elements": None})
        return 0
    covers = poset.covers()
    if args.dot:
        nodes = [
            (f"e{i}", f"{i}: " + " ".join(f"({m},{w})" for m, w in sorted(el.matching)))
            for i, el in enumerate(poset.elements)
        ]
        print(_dot("irreducible", nodes, [(f"e{i}", f"e{j}") for i, j in covers]), end="")
        return 0
    _emit(
        {
            "elements": [
                {
                    "index": i,
                    "pairs": matching_to_json(inst, el.matching)["pairs"],
                    "witnesses": [list(e) for e in el.witnesses],
                    "p_set": sorted([list(e) for e in el.pairs]),
                }
                for i, el in enumerate(poset.elements)
            ],
            "covers": [list(c) for c in covers],
        }
    )
    return 0


def _cmd_maxweight(args) -> int:
    inst = _load(args.file)
    try:
        weights = parse_edge_values(inst, _read(args.weights))
    except ParseError as err:
        raise _InputError(f"{args.weights}: {err}") from None
    result = max_weight(inst, weights)
    if result is None:
        _emit({"pairs": None})
        return 0
    matching, total = result
    document = matching_to_json(inst, matching)
    document["weight"] = str(total)
    _emit(document)
    return 0


def _cmd_check_polytope(args) -> int:
    inst = _load(args.file)
    try:
        point = parse_edge_values(inst, _read(args.point))
    except ParseError as err:
        raise _InputError(f"{args.point}: {err}") from None
    report = check_point(inst, point, args.model)
    _emit(
        {
            "model": args.model,
            "feasible": not report,
            "violations": [
                {
                    "constraint": v.constraint,
                    "witness": list(v.witness) if isinstance(v.witness, tuple) else v.witness,
                    "lhs": str(v.lhs),
                    "relation": v.relation,
                }
                for v in report
            ],
        }
    )
    return 0


def _cmd_vertices(args) -> int:
    inst = _load(args.file)
    points = vertices(inst, args.model, cap=args.cap)
    edges = inst.edges
    _emit(
        {
            "model": args.model,
            "count": len(points),
            "vertices": [
                [[m, w, str(point[(m, w)])] for m, w in edges if (m, w) in point]
                for point in points
            ],
        }
    )
    return 0


def _cmd_gen(args) -> int:
    inst = random_instance(args.men, args.women, args.density, args.tie_prob, args.seed)
    print(serialize_instance(inst), end="")
    return 0


def _cmd_oracle(args) -> int:
    inst = _load(args.file)
    for matching in brute_stable_set(inst):
        print(json.dumps(matching_to_json(inst, matching)))
    return 0


def _dot(name: str, nodes, arcs) -> str:
    lines = [f"digraph {name} {{"]
    for node_id, label in nodes:
        lines.append(f'  {node_id} [label="{label}"];')
    for a, b in arcs:
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "solve": _cmd_solve,
    "enumerate": _cmd_enumerate,
    "rotations": _cmd_rotations,
    "irreducible": _cmd_irreducible,
    "maxweight": _cmd_maxweight,
    "check-polytope": _cmd_check_polytope,
    "vertices": _cmd_vertices,
    "gen": _cmd_gen,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    if args.command is None:
        print("usage error: missing command", file=sys.stderr)
        return 1
    try:
        status = _COMMANDS[args.command](args)
        # flush here, where a closed pipe is caught, not at exit; print
        # also copes with a process started without stdout
        print(end="", flush=True)
        return status
    except (_InputError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped early: point stdout at devnull so that the
        # flush at exit cannot raise again (the SIGPIPE note in the docs
        # of Python's signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
