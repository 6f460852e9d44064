"""Alternate perfbench runs between a parent checkout and this working tree.

    python3 tools/bench_pairs.py --parent ../parent --pairs 10 \
        --workloads simulate-si-3d pressure-2d --out BENCH_18.json

For each workload and pair, `python3 perfbench/run.py --trace 0` runs once in
each checkout for BENCHMARK.json's run_seconds, each in a fresh process
started from that checkout's root;
the side that runs first flips on every pair, so a drift of the host does
not favour one side. The JSON written to --out holds every run's end-to-end
metrics, each metric's q1, median and q3 per side, the number of pairs the
change won (ties count for neither side), the change's median relative to
the parent's (worse_by, so a gain reads as -worse_by), whether it is worse
by more than the metric's bound, whether every change run beat every parent
run, whether the parent's spread is too wide to tell, the machine
record that run.py prints, and each checkout's source_lines (the lines of
its src/powerlaw_spde/*.py, as `wc -l` counts them). Exits 1 if any run
was not correct, after writing the file.
A workload that perfbench/workloads.py does not define exits 2 before any run.
"""
from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> dict:
    """q1, median and q3 (inclusive quartiles) of at least one value."""
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of metrics (BENCHMARK.json's end_to_end entries): each
    side's quartiles over the pairs {"parent": {name: value}, "change": ...},
    the pairs in which the change was strictly better, and

    - worse_by: the change's median minus the parent's, relative to the
      parent's median and signed so that positive is worse;
    - beyond_bound: whether worse_by exceeds the metric's bound;
    - all_better: whether every change run is strictly better than every
      parent run;
    - unresolved: whether the parent's quartile spread, relative to its
      median, is wider than the bound, so that a move within the bound
      cannot be told from noise; not so when all_better."""
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        # a median of 0 (ok_frac when every parent run failed) counts absolutely
        scale = abs(pq["median"]) or 1.0
        worse_by = sign * (cq["median"] - pq["median"]) / scale
        all_better = max(sign * x for x in change) < min(sign * x for x in parent)
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": pq,
            "change": cq,
            "change_wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "worse_by": worse_by,
            "beyond_bound": worse_by > metric["bound"],
            "all_better": all_better,
            "unresolved": (pq["q3"] - pq["q1"]) / scale > metric["bound"] and not all_better,
        }
    return summary


def source_lines(root: Path) -> int:
    """The total line count of root's src/powerlaw_spde/*.py, as `wc -l`
    counts it (newline characters)."""
    return sum(path.read_bytes().count(b"\n")
               for path in (root / "src" / "powerlaw_spde").glob("*.py"))


def workload_names() -> list[str]:
    """The keys of WORKLOADS in this checkout's perfbench/workloads.py, read
    without importing it."""
    source = (CHANGE / "perfbench" / "workloads.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets):
            return [key.value for key in node.value.keys]
    raise LookupError("no WORKLOADS in perfbench/workloads.py")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One --trace 0 run of perfbench/run.py in checkout root: (its result
    line with the exit code as "exit", its record line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"correct": False, "exit": proc.returncode, "error": proc.stderr[-2000:]}, {}
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    result["exit"] = proc.returncode
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under --parent {args.parent}")
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    known = workload_names()
    unknown = [name for name in args.workloads if name not in known]
    if unknown:
        parser.error(f"--workloads: no workload {', '.join(map(repr, unknown))} in "
                     f"perfbench/workloads.py (known: {', '.join(known)})")

    spec = json.loads((CHANGE / "BENCHMARK.json").read_text())
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": CHANGE}
    report = {"seed": args.seed, "seconds": seconds, "machine": None,
              "source_lines": {side: source_lines(root) for side, root in sides.items()},
              "workloads": {}}
    correct = True
    for workload in args.workloads:
        pairs = []
        for index in range(args.pairs):
            order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
            pair = {"order": order}
            for side in order:
                result, record = run_once(sides[side], workload, args.seed, seconds)
                report["machine"] = report["machine"] or record.get("machine")
                correct &= result.get("correct", False) and result["exit"] == 0
                pair[side] = {name: m["value"] for name, m in result.get("metrics", {}).items()}
                pair[side + "_run"] = {k: result.get(k) for k in
                                       ("correct", "exit", "attempted", "failed", "error")
                                       if k in result}
            pairs.append(pair)
            print(f"{workload} pair {index + 1}/{args.pairs}: "
                  f"parent {pair['parent'].get('step_ms')} change {pair['change'].get('step_ms')} step_ms",
                  file=sys.stderr, flush=True)
        complete = [p for p in pairs if p["parent"] and p["change"]]
        report["workloads"][workload] = {
            "pairs": pairs, "summary": summarize(complete, metrics) if complete else {}}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    report["correct"] = correct
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
