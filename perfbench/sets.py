"""Run a set of benchmark runs and summarise their spread.

    python3 perfbench/sets.py --seeds 1-10 [--save set.json]
                              [--against other.json]

Runs ``run.py --trace 0`` once per (workload, seed) for every workload
of BENCHMARK.json, one run at a time, then prints per end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, i.e. (q3 - q1) / median, next to the metric's bound in
BENCHMARK.json; a spread above its bound fails the set (exit 1), for
``setup_s`` too. ``--against`` also prints how far this set's median
moved from another saved set's, in the metric's "worse" direction (the
A/A check when both sets ran the same code); a move beyond the bound
fails the set as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload, seed, seconds) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def summarise(runs: dict, spec: dict, against: dict | None) -> bool:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs, "
              f"{statistics.fmean(r['wall_s'] for r in results):.1f} s "
              f"wall each)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            line = (f"  {name:28s} median {med:10.4f}  q1 {q1:10.4f}  "
                    f"q3 {q3:10.4f}  spread {spread:6.3f}")
            m = bounds.get(name)
            if m is not None:
                line += f"  bound {m['bound']:.2f}"
                if spread > m["bound"]:
                    line += "  SPREAD > BOUND"
                    ok = False
                elif spread > m["bound"] / 3:
                    line += "  (spread > bound/3)"
            if against and workload in against:
                old = statistics.median(
                    r["metrics"][name]["value"] for r in against[workload])
                worse = (med - old) / old if old else 0.0
                if m is not None and m["better"] == "higher":
                    worse = -worse
                line += f"  vs other {worse:+.3f}"
                if m is not None and worse > m["bound"]:
                    line += "  WORSE > BOUND"
                    ok = False
            print(line)
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--save", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)

    runs: dict[str, list] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            runs.setdefault(workload, []).append(
                run_one(workload, seed, spec["run_seconds"]))
    if args.save:
        args.save.write_text(json.dumps(runs))
    against = json.loads(args.against.read_text()) if args.against else None
    return 0 if summarise(runs, spec, against) else 1


if __name__ == "__main__":
    sys.exit(main())
