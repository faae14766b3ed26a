"""blockdet benchmark: verdict latency and throughput per workload.

    python3 perfbench/run.py --workload interactive|schema|blowup \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness measures set-up time, builds
the workload's job list from the seed (with expected answers), hands it to
a fresh workload process (perfbench/worker.py) that runs it in a closed
loop for S seconds, checks every output and prints the metrics.  The last
line of stdout is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics from a traced run with --trace 1.  A wrong verdict ends
the run with exit status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import gen
import layers
from spans import PARENT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # the whole run, set-up included
SETUP_SAMPLES_PER_WORKER = 5

END_TO_END = [
    {"name": "setup_s", "unit": "s"},
    {"name": "verdicts_per_s", "unit": "1/s"},
    {"name": "verdict_p50_ms", "unit": "ms"},
    {"name": "verdict_tail_ms", "unit": "ms"},
    {"name": "peak_rss_mb", "unit": "MB"},
    {"name": "ok_frac", "unit": "frac"},
]

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import blockdet, blockdet.cli; print(time.perf_counter() - t)"
)


def import_time() -> float:
    """Seconds a fresh interpreter takes to import blockdet and blockdet.cli."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(src=str(SRC))],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile by nearest rank and the number of values above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_workers(jobs: list[dict], payload: dict, seed: int, deadline: float) -> dict:
    """Run each job group in its own workload process, one after the other,
    each for an equal share of the run, with its own string-hash seed:
    blockdet iterates over frozensets, whose order follows that seed, so
    one process measures one iteration order and the run samples four.
    Set-up time is sampled between the processes.  Returns the merged
    results and spans, peak RSS per process and the import-time samples."""
    trace = payload["trace"]
    merged = {"results": [], "spans": [], "rss_kb": [], "setup": [], "passes": 0}
    if not trace:
        import_time()  # writes the bytecode; not a sample
    share = dict(payload, seconds=payload["seconds"] / gen.GROUPS,
                 min_jobs=math.ceil(payload["min_jobs"] / gen.GROUPS))
    for group in range(gen.GROUPS):
        if not trace:
            merged["setup"] += [import_time() for _ in range(SETUP_SAMPLES_PER_WORKER)]
        left = deadline - time.monotonic()
        # Expected answers stay here: the workload process gets only inputs.
        group_jobs = [{key: value for key, value in job.items() if key != "expect"}
                      for job in jobs if job["group"] == group]
        share.update(jobs=group_jobs,
                     pass_base=merged["passes"], hard_stop_s=(left - 10) / (gen.GROUPS - group))
        env = dict(os.environ, PYTHONHASHSEED=str((seed * gen.GROUPS + group) % 2**32))
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(share),
            capture_output=True, text=True, timeout=max(left, 1), cwd=ROOT, env=env,
        )
        if done.returncode != 0:
            raise RuntimeError(f"workload process failed:\n{done.stderr[-2000:]}")
        data = json.loads(done.stdout)
        offset = len(merged["spans"])
        for record in data["spans"]:
            if record[PARENT] >= 0:
                record[PARENT] += offset
        merged["spans"] += data["spans"]
        merged["results"] += data["results"]
        merged["rss_kb"].append(data["rss_kb"])
        merged["passes"] += data["passes"]
    return merged


def verify(jobs: list[dict], results: list) -> str | None:
    """Check every observed output; the first problem found, if any."""
    checker = gen.Checker(jobs)
    stdout: dict = {}
    for job_id, _, _, status, _, out in results:
        if status != "ok":
            continue
        if out.get("stdout") is not None:
            stdout[job_id] = out["stdout"]
        problem = checker.check(job_id, out, stdout.get(job_id))
        if problem:
            job = checker.jobs[job_id]
            shown = job.get("argv") or job.get("text", "")[:120] or job.get("family")
            return f"job {job_id} ({job['rung']}: {shown}): {problem}"
    return None


def end_to_end(spec: dict, data: dict) -> dict:
    """verdicts_per_s is the median over passes of jobs / charged time, so
    that a burst of machine load in one pass does not move it."""
    results = data["results"]
    charged = [r[4] if r[3] == "ok" else spec["limit_s"] for r in results]
    tail, beyond = nearest_rank(charged, spec["tail_pct"])
    if beyond < 10:
        raise RuntimeError(f"only {beyond} jobs beyond p{spec['tail_pct']}")
    per_pass: dict = {}
    for r, seconds in zip(results, charged):
        jobs, total = per_pass.get(r[1], (0, 0.0))
        per_pass[r[1]] = (jobs + 1, total + seconds)
    failed = sum(1 for r in results if r[3] != "ok")
    return {
        "setup_s": statistics.median(data["setup"]),
        "verdicts_per_s": statistics.median(n / t for n, t in per_pass.values()),
        "verdict_p50_ms": statistics.median(charged) * 1e3,
        "verdict_tail_ms": tail * 1e3,
        "peak_rss_mb": statistics.median(data["rss_kb"]) / 1024,
        "ok_frac": 1 - failed / len(results),
    }


def describe_failures(spec: dict, results: list) -> str:
    counts = {status: 0 for status in ("crash", "refused", "over")}
    for r in results:
        if r[3] != "ok":
            counts[r[3]] += 1
    failed = sum(counts.values())
    parts = ", ".join(f"{k} {v}" for k, v in counts.items())
    return (f"failed_frac {failed / len(results):.6f} ({failed} of {len(results)}: {parts}); "
            f"per-job limit {spec['limit_s']} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "blockdet" / "__init__.py").is_file():
        print(f"blockdet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = gen.WORKLOADS[args.workload]

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        jobs = gen.build(args.workload, args.seed, workdir)
        payload = {
            "limit_s": spec["limit_s"],
            "seconds": args.seconds,
            "min_jobs": spec["min_jobs"],
            "trace": bool(args.trace),
        }
        data = run_workers(jobs, payload, args.seed, started + DEADLINE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it
    results = data["results"]

    problem = verify(jobs, results)
    failed = sum(1 for r in results if r[3] != "ok")
    print(f"workload {args.workload}, seed {args.seed}: {len(results)} jobs in "
          f"{data['passes']} passes over {gen.GROUPS} groups of {len(jobs) // gen.GROUPS}")
    print(describe_failures(spec, results))
    crashes = Counter((jobs[r[0]]["rung"], r[5]["error"][:100]) for r in results if r[3] == "crash")
    for (rung, error), count in sorted(crashes.items()):
        print(f"  {count} crashes in {rung}: {error}")
    if problem:
        print(f"WRONG VERDICT: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(results), "failed": failed,
                          "metrics": {}}))
        return 1

    if args.trace:
        run = layers.TracedRun(args.workload, jobs, data["spans"], results)
        for row in run.rung_rows():
            print(row)
        values = run.metrics()
        units = {m["name"]: m["unit"] for m in layers.metric_specs()}
    else:
        values = end_to_end(spec, data)
        units = {m["name"]: m["unit"] for m in END_TO_END}
        _, beyond = nearest_rank([r[4] for r in results], spec["tail_pct"])
        print(f"verdict_tail_ms is p{spec['tail_pct']} of {len(results)} charged job times "
              f"({beyond} beyond it)")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, metric in metrics.items():
        print(f"{name:<36} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
