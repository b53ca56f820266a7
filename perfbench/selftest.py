"""Self-test of the benchmark; run as ``python3 perfbench/selftest.py``.

1. A tiny-size pass of each workload, untraced and traced, prints every
   metric that applies to it with its unit and reports no failure.
2. A deliberately corrupted answer (two pairs with swapped partners) fed to
   each workload's checker counts as a failure, so the checks are live.
3. ``BENCHMARK.json`` agrees with the metric catalog.
4. In a directory holding only ``BENCHMARK.json`` and the benchmark, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def swapped(matching) -> frozenset:
    """The matching with the partners of its first two pairs exchanged."""
    (m1, w1), (m2, w2), *rest = sorted(matching)
    return frozenset([(m1, w2), (m2, w1), *rest])


def corrupt(name: str, results: dict) -> dict:
    bad = dict(results)
    if name == "lattice_wide":
        bad["listed"] = [results["listed"][0], swapped(results["listed"][1]), *results["listed"][2:]]
    elif name == "chain_dense":
        men, women = results["solves"]
        bad["solves"] = (swapped(men), women)
    else:
        k = next(i for i, (men, _) in enumerate(results["solves"]) if men and len(men) > 1)
        bad["solves"] = list(results["solves"])
        bad["solves"][k] = (swapped(results["solves"][k][0]), results["solves"][k][1])
    return bad


def main() -> int:
    run.load_package()
    import metrics
    import measure

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for kind in ("end_to_end", "per_layer"):
        for entry in spec[kind]:
            m = metrics.BY_NAME.get(entry["name"])
            expect(
                m is not None
                and (m.unit, m.better) == (entry["unit"], entry["better"])
                and set(m.workloads) == set(metrics.ALL)
                and (m.layer == "end_to_end") == (kind == "end_to_end"),
                f"BENCHMARK.json {kind} {entry['name']} matches the catalog and applies everywhere",
            )

    for name, cls in run.workload_classes().items():
        for traced in (False, True):
            line, report, _ = run.run_workload(name, 1, 0.5, traced, tiny=True)
            expect(line["correct"] and line["failed"] == 0, f"{name} trace={int(traced)}: no failure")
            wanted = spec["per_layer" if traced else "end_to_end"]
            expect(
                set(line["metrics"]) == {m["name"] for m in wanted},
                f"{name} trace={int(traced)}: result line carries every BENCHMARK.json metric",
            )
            applicable = [
                m for m in metrics.CATALOG
                if name in m.workloads and (m.layer == "end_to_end") != traced
                and not m.name.endswith(".high")  # needs 100+ samples
            ]
            rows = {row.split()[0]: row.split()[1:3] for row in report[1:]}
            missing = [
                m.name for m in applicable
                if rows.get(m.name, ["n/a"])[0] == "n/a" or rows[m.name][1] != m.unit
            ]
            expect(not missing, f"{name} trace={int(traced)}: report prints every metric with its unit {missing or ''}")
            if not traced:
                expect(rows["error_rate"][0] == "0", f"{name}: error_rate == 0")

        workdir = run.OUT / "selftest"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = cls(1, True, workdir)
            one = measure.run_passes(workload, 0, False, sys.modules["superstable"])
            expect(not one.failures, f"{name}: checker accepts the library's answers")
            expect(bool(workload.check(corrupt(name, one.results))),
                   f"{name}: checker rejects a matching with two swapped partners")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "chain_dense",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(done.returncode != 0 and not done.stdout.strip(),
               "without the package sources the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
