"""Run every workload on several seeds and record the results.

    python3 perfbench/record.py --seeds 1-10 --seconds 30 --out perfbench/baseline.json

For each workload: every run's result line, per end-to-end metric the
median, the quartiles and the spread (quartile distance over the median),
and one traced run at the first seed.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    record = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}",
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in gen.WORKLOADS:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, **result})
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        traced = run_once(workload, args.seeds[0], args.seconds, 1)
        entry = {"runs": runs, "summary": summary(runs), "traced": {"seed": args.seeds[0], **traced}}
        record["workloads"][workload] = entry
        for name, stats in entry["summary"].items():
            print(f"  {name:<18} median {stats['median']:.6g}  spread {stats['spread']:.3f}")
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
