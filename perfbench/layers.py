"""Per-layer metrics from the spans of a traced run.

Layers are the blockdet modules; a span is named `<module>.<step>`.  Every
time or count is per pass of a job group (the run's total over its traced
passes, divided by their number), so that the figure does not depend on how
many passes fit into --seconds.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import COUNTS, END, JOB, NAME, PARENT, PASS, START

SELF_TIMES = (
    "syntax.parse",
    "syntax.mark",
    "glushkov.build",
    "automaton.expand",
    "automaton.determinize",
    "automaton.minimize",
    "automaton.equivalent",
    "determinism.block",
    "determinism.lookahead",
    "determinism.min_lookahead",
    "bkw.test",
    "bkw.certify",
    "transform.chi",
    "transform.eliminate",
    "witnesses.verify",
    "cli.main",
)

# metric name -> (span name, key in the span's counts, how runs combine)
COUNTS_FROM = {
    "syntax.positions.count": ("syntax.mark", "count", sum),
    "glushkov.transitions.count": ("glushkov.build", "count", sum),
    "automaton.expand.states_out": ("automaton.expand", "states_out", sum),
    "automaton.determinize.states_out": ("automaton.determinize", "states_out", sum),
    "automaton.minimize.states_out": ("automaton.minimize", "states_out", sum),
    "determinism.block.violations": ("determinism.block", "violations", sum),
    "bkw.test.nodes": ("bkw.test", "nodes", sum),
    "bkw.test.max_depth": ("bkw.test", "max_depth", max),
}

# span name -> (workload, ladder) whose doubling rungs give its doubling ratio
DOUBLING = {
    "automaton.expand": ("schema", "tags"),
    "automaton.determinize": ("blowup", "exp"),
    "automaton.minimize": ("blowup", "exp"),
    "determinism.block": ("schema", "tags"),
    "determinism.min_lookahead": ("blowup", "dict"),
    "bkw.test": ("schema", "models"),
}


def metric_specs() -> list[dict]:
    """The per-layer metrics in BENCHMARK.json order."""
    specs = []
    for span in SELF_TIMES:
        specs.append({"name": f"{span}.self_s", "unit": "s", "better": "lower"})
        specs += [
            {"name": name, "unit": "count", "better": "lower"}
            for name, (source, _, _) in COUNTS_FROM.items()
            if source == span
        ]
        if span in DOUBLING:
            specs.append({"name": f"{span}.doubling", "unit": "ratio", "better": "lower"})
    specs += [
        {"name": "cli.overhead_p50_ms", "unit": "ms", "better": "lower"},
        {"name": "bench.trace_overhead_frac", "unit": "frac", "better": "lower"},
        {"name": "bench.harness_frac", "unit": "frac", "better": "lower"},
    ]
    return specs


def check_nesting(records: list) -> None:
    """Every span lies inside its parent, and siblings do not overlap, so
    the child spans of a job plus the harness's own time make up the job."""
    last_end: dict = {}
    for index, record in enumerate(records):
        parent = record[PARENT]
        if record[END] < record[START]:
            raise ValueError(f"span {index} ({record[NAME]}) ends before it starts")
        if parent >= 0:
            outer = records[parent]
            if record[START] < outer[START] or record[END] > outer[END]:
                raise ValueError(f"span {index} ({record[NAME]}) leaves its parent")
        if record[START] < last_end.get(parent, -math.inf):
            raise ValueError(f"span {index} ({record[NAME]}) overlaps its sibling")
        last_end[parent] = record[END]


class TracedRun:
    def __init__(self, workload: str, jobs: list[dict], records: list, results: list):
        check_nesting(records)
        self.workload = workload
        self.jobs = {job["id"]: job for job in jobs}
        self.records = records
        self.results = results
        self.passes = len({r[PASS] for r in records}) or 1
        self.children: dict = defaultdict(list)
        for index, record in enumerate(records):
            self.children[record[PARENT]].append(index)
        self.per_job = self._per_job()

    def _duration(self, index: int) -> float:
        return self.records[index][END] - self.records[index][START]

    def _self(self, index: int) -> float:
        return self._duration(index) - sum(self._duration(c) for c in self.children[index])

    def _per_job(self) -> dict:
        """(job, pass) -> span name -> total seconds below the job's root
        (replays of CLI requests excluded)."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for root in self.children[-1]:
            record = self.records[root]
            if not record[NAME].startswith("job."):
                continue
            stack = list(self.children[root])
            while stack:
                index = stack.pop()
                out[(record[JOB], record[PASS])][self.records[index][NAME]] += self._duration(index)
                stack.extend(self.children[index])
        return out

    def rung_rows(self) -> list[str]:
        """One row per rung: job count per pass, median traced job time and
        the median time per job of each span below the job."""
        per_job = self.per_job
        totals = {(r[JOB], r[PASS]): self._duration(i)
                  for i, r in enumerate(self.records) if r[PARENT] == -1 and r[NAME].startswith("job.")}
        rungs: dict = defaultdict(list)
        for key in totals:
            rungs[self.jobs[key[0]]["rung"]].append(key)
        rows = []
        for rung in sorted(rungs, key=_rung_order):
            keys = rungs[rung]
            names = sorted({name for key in keys for name in per_job[key]})
            cells = [f"{name} {statistics.median(per_job[k][name] for k in keys) * 1e3:.3f}"
                     for name in names]
            rows.append(
                f"rung {rung:<18} jobs/pass={len(keys) // self.passes:<3} "
                f"job_p50_ms={statistics.median(totals[k] for k in keys) * 1e3:.3f} | "
                + " | ".join(cells)
            )
        return rows

    def metrics(self) -> dict:
        values: dict = {}
        self_time: dict = defaultdict(float)
        for index, record in enumerate(self.records):
            self_time[record[NAME]] += self._self(index)
        for span in SELF_TIMES:
            values[f"{span}.self_s"] = self_time.get(span, 0.0) / self.passes
        for name, (span, key, combine) in COUNTS_FROM.items():
            found = [r[COUNTS][key] for r in self.records
                     if r[NAME] == span and r[COUNTS] and key in r[COUNTS]]
            if combine is sum:
                values[name] = sum(found) / self.passes
            else:
                values[name] = max(found, default=0)
        for span, (workload, ladder) in DOUBLING.items():
            values[f"{span}.doubling"] = (
                self._doubling(span, ladder) if workload == self.workload else 0.0
            )
        values["cli.overhead_p50_ms"] = self._cli_overhead_ms()
        values["bench.trace_overhead_frac"] = self._trace_overhead()
        roots = [i for i in self.children[-1] if self.records[i][NAME].startswith("job.")]
        traced = sum(self._duration(i) for i in roots)
        values["bench.harness_frac"] = sum(self._self(i) for i in roots) / traced if traced else 0.0
        return values

    def _doubling(self, span: str, ladder: str) -> float:
        """Geometric mean over consecutive rungs of time(2n) / time(n), each
        rung's time the median over its jobs of the span's time per job."""
        by_size: dict = defaultdict(list)
        for (job_id, _), names in self.per_job.items():
            job = self.jobs[job_id]
            if job.get("ladder") == ladder and span in names:
                by_size[job["size"]].append(names[span])
        sizes = sorted(by_size)
        times = [statistics.median(by_size[s]) for s in sizes]
        ratios = [b / a for a, b in zip(times, times[1:]) if a > 0]
        if not ratios:
            return 0.0
        return math.exp(statistics.fmean(math.log(r) for r in ratios))

    def _cli_overhead_ms(self) -> float:
        """Median over requests of the cli.main call minus the library calls
        that answer the same request."""
        cli_time = {}
        for index, record in enumerate(self.records):
            if record[NAME] == "cli.main":
                cli_time[(record[JOB], record[PASS])] = self._duration(index)
        library = {}
        for root in self.children[-1]:
            record = self.records[root]
            if record[NAME] == "replay.cli":
                library[(record[JOB], record[PASS])] = sum(
                    self._duration(c) for c in self.children[root]
                )
        failed = {(r[0], r[1]) for r in self.results if r[3] != "ok"}
        diffs = [cli_time[key] - library[key] for key in cli_time
                 if key in library and key not in failed]
        return statistics.median(diffs) * 1e3 if diffs else 0.0

    def _trace_overhead(self) -> float:
        """Traced job time over untraced job time, same jobs, minus 1."""
        traced = sum(r[4] for r in self.results if r[2] and r[3] == "ok")
        plain = sum(r[4] for r in self.results if not r[2] and r[3] == "ok")
        return traced / plain - 1 if plain else 0.0


def _rung_order(rung: str):
    ladder, _, size = rung.rpartition("-")
    return (ladder, int(size)) if size.isdigit() else (rung, 0)
