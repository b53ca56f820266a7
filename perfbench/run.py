"""Benchmark of the superstable package: every module, three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there.  The workload's inputs are generated from the seed, then
whole passes of its operation mix run until ``--seconds`` of measuring are
used, every answer is checked against the oracle or the generator's exact
values, and a report is printed.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  A traced run alternates untraced and traced
passes, writes its spans to ``.perfbench_out/`` and reports the tracing
overhead.  Scratch files go to ``.perfbench_out/`` and are removed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def load_package():
    """Import superstable from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "superstable" / "__init__.py").is_file():
        sys.exit(f"perfbench: no superstable sources under {src}")
    sys.path[:0] = [d for d in (str(src), str(HERE)) if d not in sys.path]
    import superstable

    if Path(superstable.__file__).resolve().parent != (src / "superstable").resolve():
        sys.exit(f"perfbench: imported superstable from {superstable.__file__}, not {src}")
    return superstable


def workload_classes():
    from workloads import ChainDense, DeskScale, LatticeWide

    return {w.name: w for w in (ChainDense, LatticeWide, DeskScale)}


def run_workload(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False):
    """Generate, run and check one workload; returns (result line, report, tracer)."""
    package = load_package()
    import measure
    import metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workload_classes()[name](seed, tiny, workdir)
        gc.collect()
        run = measure.run_passes(workload, seconds, traced, package)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = min(len(run.failures), run.attempted)
    error_rate = failed / max(run.attempted, 1)
    # ru_maxrss is in KiB on Linux; the process runs nothing but this workload
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values: dict = {}
    notes: dict = {}
    if traced:
        if run.traced:
            values, notes = metrics.per_layer(run, run.results)
        wanted = spec["per_layer"]
    else:
        if run.plain:
            values = metrics.end_to_end(run, error_rate, peak)
        wanted = spec["end_to_end"]
    passes = f"{len(run.plain)} untraced" + (f" + {len(run.traced)} traced" if traced else "")
    report = [f"workload {name}  seed {seed}  passes {passes}  "
              f"attempted {run.attempted}  failed {failed}"]
    report += [f"FAILED x{k}: {msg}" for msg, k in Counter(run.failures).most_common(20)]
    for m in metrics.CATALOG:
        if (m.layer == "end_to_end") == traced:
            continue
        value = values.get(m.name)
        shown = "n/a" if value is None else f"{value:.6g}"
        note = f"  ({notes[m.name]})" if m.name in notes else ""
        report.append(f"  {m.name:40s} {shown:>14s} {m.unit}{note}")
    line = {
        "correct": not run.failures,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
            if isinstance(values.get(m["name"]), (int, float))
            and math.isfinite(values[m["name"]])
        },
    }
    return line, report, run.tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["chain_dense", "lattice_wide", "desk_scale"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    line, report, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report))
    if tracer is not None:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
