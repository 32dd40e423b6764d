"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints one line per metric, then, as the last line of standard output,
``{"correct", "attempted", "failed", "metrics"}`` as JSON. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are its per-layer ones, and the spans are also
written to ``perfbench/out/`` as Chrome trace-event JSON next to a
ledger file. Exit codes: 0 done, 1 outputs differ from the oracle,
2 the program's sources are missing, 3 the run is invalid (the load
generator fell behind its schedule). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# The benchmark measures the sources next to it, never an installed copy.
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", choices=("mask_flip", "stall"),
                    help="plant a fault to test the benchmark's own checks")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), args.plant
    )
    env = environment(args.seed)
    if outcome.invalid:
        print(f"perfbench: invalid run: {outcome.invalid}", file=sys.stderr)
        return 3

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome.layers if args.trace else outcome.e2e
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted
    }
    if not args.trace:
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")
    correct = outcome.mismatches == 0
    failed_share = outcome.failed / max(outcome.attempted, 1)
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "environment": env, "mask_mismatches": outcome.mismatches,
        "failed_share": failed_share, "reported": outcome.reported, "ledger": outcome.ledger,
        "result": result,
    }
    if outcome.recorder is not None:
        outcome.recorder.write_chrome_trace(OUT_DIR / f"{stem}.trace.json")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print("environment " + json.dumps(env))
    print(f"mask_mismatches {outcome.mismatches} count")
    print(f"failed_share {failed_share:.6g} ratio")
    for name, (value, unit) in outcome.reported.items():
        if name not in metrics:
            print(f"{name} {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


def stop_children() -> None:
    """Wait for every process the run started. Pool and shard workers
    are joined (killed after a grace period if they hang); the resource
    tracker that ``spawn`` pools and shared memory start is stopped and
    waited for, since on its own it outlives the run by the moment it
    takes to notice that its parent has gone."""
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for proc in mp.active_children():
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
