"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python tools/bench_pairs.py <parent-tree> <change-tree> <out.json> \
        --workload simulate --seeds 7001 7002 ... [--seconds 30] [--trace 1]

For each seed, runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace R`` in each tree, one process at a time: the parent first in even
pairs, the change first in odd ones.  Each run's last stdout line is its JSON
result.  Per metric of that line the output keeps both sides' values, their
medians and quartiles, and the pairs the change won by the metric's
``better`` direction in BENCHMARK.json; a tie counts for neither side.  The
summary goes under ``workloads`` (or ``traced`` with ``--trace 1``), keyed by
workload, and is merged into an existing output file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: dict[str, list[float]], better: str) -> dict:
    out = dict(values)
    for side in SIDES:
        out[f"{side}_median"] = statistics.median(values[side])
        if len(values[side]) > 1:
            out[f"{side}_quartiles"] = statistics.quantiles(values[side], n=4)
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
    out["change_better_pairs"] = f"{won}/{len(values['change'])}"
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("out", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    trees = dict(zip(SIDES, (args.parent, args.change)))
    runs, order = {side: [] for side in SIDES}, []
    for i, seed in enumerate(args.seeds):
        order.append(SIDES if i % 2 == 0 else SIDES[::-1])
        for side in order[-1]:
            runs[side].append(run_once(trees[side], args.workload, seed, args.seconds, args.trace))
            print(f"{args.workload} seed {seed} {side}: correct={runs[side][-1]['correct']}",
                  file=sys.stderr)
    metrics = {name: summary({side: [r["metrics"][name]["value"] for r in runs[side]]
                              for side in SIDES}, better[name])
               for name in runs["change"][0]["metrics"]}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("traced" if args.trace else "workloads", {})[args.workload] = {
        "seeds": args.seeds, "seconds": args.seconds, "order": order,
        "correct": {side: [r["correct"] for r in runs[side]] for side in SIDES},
        "metrics": metrics}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
