"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload sim-small --seeds 1-10 [--json FILE]

For every metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread, (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  Runs are sequential, as
the benchmark expects the machine to itself.  Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: done", flush=True)
        rows = summary[workload] = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            rows[name] = {"median": median, "q1": q1, "q3": q3, "runs": len(vals),
                          "spread": (q3 - q1) / median if median else 0.0}
            bound = bounds[name]
            print(f"{workload:13s} {name:36s} median {median:14.6f}  q1 {q1:14.6f}  q3 {q3:14.6f}"
                  f"  spread {rows[name]['spread']:.4f}  bound {bound}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
