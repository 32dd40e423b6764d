"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Every test drives ``run.py`` from the command line, in a fresh
process, with a tiny time budget.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra, seconds=1, trace=0, cwd=ROOT, seed=7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run(workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    lines = proc.stdout.splitlines()
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(line.startswith(m["name"] + " ")
                   and line.endswith(" " + m["unit"]) for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "mask_mismatches 0 count" in lines
    assert "failed_share 0 ratio" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_flipped_mask_pixel_is_caught(workload):
    proc = run(workload, "--plant", "mask_flip")
    assert proc.returncode == 1, proc.stderr
    assert last_json(proc)["correct"] is False
    count = [line for line in proc.stdout.splitlines()
             if line.startswith("mask_mismatches ")]
    assert int(count[0].split()[1]) > 0


def test_a_generator_stall_invalidates_the_run():
    proc = run("serve_threads", "--plant", "stall", seconds=2)
    assert proc.returncode == 3
    assert "load generator fell behind" in proc.stderr
    assert not proc.stdout.strip().endswith("}")


def test_simulated_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = run("sim_ladder", trace=1)
        assert proc.returncode == 0, proc.stderr
        counts.append({
            k: v["value"] for k, v in last_json(proc)["metrics"].items()
            if k.startswith(("gpusim.sim_kernel_us.", "gpusim.transactions."))
        })
    assert len(counts[0]) == 14 and all(v > 0 for v in counts[0].values())
    assert counts[0] == counts[1]


def session_members(sid: int) -> list[int]:
    """Live processes of session ``sid``, from ``/proc/<pid>/stat``."""
    pids = []
    for d in Path("/proc").iterdir():
        if not d.name.isdigit():
            continue
        try:
            fields = (d / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            pids.append(int(d.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
@pytest.mark.parametrize("workload", ["serve_threads", "serve_sharded"])
def test_no_process_outlives_the_run(workload):
    """The oracle pool, the shards and the resource tracker they start
    have all ended when the runner exits."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert session_members(proc.pid) == []


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
