"""The workload process: runs one workload's job list in a closed loop.

One client, no threads: each job starts when the previous one has ended.
The job list arrives as JSON on stdin; timings, observed outputs and (on
traced runs) spans go back as one JSON object on stdout.  This process
imports blockdet and does nothing else, so its peak RSS is the program's.

    python3 perfbench/worker.py < payload.json
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blockdet import automaton as au  # noqa: E402
from blockdet import bkw as bk  # noqa: E402
from blockdet import cli  # noqa: E402
from blockdet import determinism as dt  # noqa: E402
from blockdet import syntax as sx  # noqa: E402
from blockdet import transform as tf  # noqa: E402
from blockdet import witnesses as wt  # noqa: E402
from blockdet.glushkov import glushkov  # noqa: E402

from spans import END, START, Spans, untraced  # noqa: E402


class OverLimit(Exception):
    """Raised by the interval timer when a job exceeds its time limit."""


def _alarm(signum, frame):
    raise OverLimit


# --- counts read from return values ------------------------------------------------


def _positions(marked):
    return {"count": len(marked.positions)}


def _transitions(g):
    return {"count": len(g.automaton.transitions)}


def _states_out(a):
    return {"states_out": len(a.states)}


def _violations(result):
    return {"violations": len(result.violations)}


def _bkw_shape(trace):
    nodes, depth = 0, 0
    stack = [(trace.steps, 1)]
    while stack:
        node, level = stack.pop()
        nodes += 1
        depth = max(depth, level)
        stack.extend((child, level + 1) for child in node.children)
    return {"nodes": nodes, "max_depth": depth}


# --- pipeline pieces, each call one span when traced -------------------------------------


def _glushkov_of(step, text):
    ast = step("syntax.parse", sx.parse, text)
    marked = step("syntax.mark", sx.mark, ast, counts=_positions)
    return step("glushkov.build", glushkov, marked, counts=_transitions)


def _minimal_dfa(step, a):
    """expand -> determinize -> minimize, as blockdet.bkw.minimal_dfa does."""
    x = step("automaton.expand", au.expand_blocks, a, counts=_states_out)
    d = step("automaton.determinize", au.determinize, x, counts=_states_out)
    return step("automaton.minimize", au.minimize, d, counts=_states_out)


def _load(step, path):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return step("automaton.from_json", au.from_json, data)


def run_schema(job, step):
    g = _glushkov_of(step, job["text"])
    block = step("determinism.block", dt.is_k_block_deterministic, g.automaton, job["k"],
                 counts=_violations)
    m = _minimal_dfa(step, g.automaton)
    trace = step("bkw.test", bk.bkw_test, m, counts=_bkw_shape)
    return {"block": block.verdict, "bkw": trace.verdict, "min_states": len(m.states)}


def run_exp(job, step):
    g = _glushkov_of(step, job["text"])
    m = _minimal_dfa(step, g.automaton)
    trace = step("bkw.test", bk.bkw_test, m, counts=_bkw_shape)
    same = step("automaton.equivalent", au.equivalent, g.automaton, m)
    return {"min_states": len(m.states), "bkw": trace.verdict, "equivalent": same}


def run_dict(job, step):
    g = _glushkov_of(step, job["text"])
    least = step("determinism.min_lookahead", dt.min_lookahead, g.automaton)
    out = {"min_lookahead": least}
    if least is not None:
        k = least
        out["at_k"] = step("determinism.lookahead", dt.is_k_lookahead_deterministic,
                           g.automaton, k).verdict
        if k > 1:
            out["below_k"] = step("determinism.lookahead", dt.is_k_lookahead_deterministic,
                                  g.automaton, k - 1).verdict
    return out


def run_witness(job, step):
    spec = wt.WitnessSpec(job["family"], job["parameter"])
    report = step("witnesses.verify", wt.verify, spec, job["parameter"])
    out = {"passed": report.passed}
    if "chain" in job:
        a = step("automaton.from_json", au.from_json, job["chain"])
        b = step("transform.eliminate", tf.eliminate_set, a, job["eliminate"])
        out["eliminated"] = au.to_json(b)["transitions"]
    return out


def run_cli(job, step):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = step("cli.main", cli.main, job["argv"])
    return {"exit": code, "stdout": out.getvalue()}


def replay_cli(job, step):
    """The library calls that answer the same request as `job`."""
    verb = job["verb"]
    if verb in ("eliminate", "min", "equiv"):
        automata = [_load(step, path) for path in job["files"]]
        if verb == "eliminate":
            step("transform.eliminate", tf.eliminate, automata[0], job["state"])
        elif verb == "min":
            step("automaton.minimize", au.minimize, automata[0], counts=_states_out)
        else:
            step("automaton.equivalent", au.equivalent, *automata)
        return
    if verb == "chi":
        ast = step("syntax.parse", sx.parse, job["expr"])
        marked = step("syntax.mark", sx.mark, ast, counts=_positions)
        step("syntax.drop", sx.drop, step("transform.chi", tf.chi, marked))
        return
    if "file" in job:
        a = _load(step, job["file"])
    else:
        a = _glushkov_of(step, job["expr"]).automaton
    if verb in ("one-unambiguous", "bkw"):
        step("bkw.test", bk.bkw_test, _minimal_dfa(step, a), counts=_bkw_shape)
    elif verb == "block":
        step("determinism.block", dt.is_k_block_deterministic, a, job["k"], counts=_violations)
    elif verb == "lookahead":
        step("determinism.lookahead", dt.is_k_lookahead_deterministic, a, job["k"])
    elif verb == "min-lookahead":
        step("determinism.min_lookahead", dt.min_lookahead, a)
    elif verb == "certify":
        step("bkw.certify", bk.certify_k_block_language, a, job["k"])


RUNNERS = {
    "cli": run_cli,
    "schema": run_schema,
    "exp": run_exp,
    "dict": run_dict,
    "witness": run_witness,
}


# --- the closed loop -------------------------------------------------------------------


def _timed(job, step, limit_s):
    """Run one job under the limit: (status, seconds, output)."""
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    start = perf_counter()
    try:
        out = RUNNERS[job["kind"]](job, step)
        status = "refused" if out.get("exit") == 2 else "ok"
    except OverLimit:
        out, status = None, "over"
    except Exception as exc:  # a crash is a measured outcome, not a harness error
        out, status = {"error": f"{type(exc).__name__}: {str(exc)[:200]}"}, "crash"
    finally:
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, elapsed, out


def _replay(job, spans, limit_s):
    """Traced only: the library calls behind one CLI request, under their
    own root span.  They give no verdict; an error (the probes crash here
    too) just ends the replay."""
    spans.begin("replay.cli")
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        replay_cli(job, spans)
    except Exception:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        spans.close_all()


def main() -> int:
    payload = json.load(sys.stdin)
    jobs = payload["jobs"]
    limit_s = payload["limit_s"]
    traced_run = payload["trace"]
    spans = Spans()
    signal.signal(signal.SIGALRM, _alarm)
    results = []
    first_stdout: dict = {}
    started = perf_counter()
    passes = 0
    base = payload["pass_base"]
    while True:
        # Stop at the pass boundary nearest to the time share, once the
        # minimum job count is reached (traced runs: after whole pairs).
        elapsed = perf_counter() - started
        enough = (passes and elapsed + elapsed / passes / 2 >= payload["seconds"]
                  and len(results) >= payload["min_jobs"])
        if traced_run:
            enough = enough and passes % 2 == 0
        if passes and (enough or elapsed >= payload["hard_stop_s"]):
            break
        traced = traced_run and passes % 2 == 1
        gc.collect()
        for job in jobs:
            if perf_counter() - started >= payload["hard_stop_s"]:
                break
            if traced:
                spans.job, spans.pass_no = job["id"], base + passes
                root = spans.begin("job." + job["kind"])
                status, _, out = _timed(job, spans, limit_s)
                spans.close_all()
                seconds = spans.records[root][END] - spans.records[root][START]
                if job["kind"] == "cli":
                    _replay(job, spans, limit_s)
            else:
                status, seconds, out = _timed(job, untraced, limit_s)
            if out is not None and "stdout" in out:
                # Outputs repeat across passes; send each distinct one once.
                if first_stdout.get(job["id"]) == out["stdout"]:
                    out["stdout"] = None
                else:
                    first_stdout[job["id"]] = out["stdout"]
            results.append([job["id"], base + passes, traced, status, seconds, out])
        passes += 1
    json.dump(
        {"results": results, "passes": passes, "rss_kb": peak_rss_kb(), "spans": spans.records},
        sys.stdout,
    )
    return 0


def peak_rss_kb() -> int:
    """This process's own peak resident set.  Linux carries ru_maxrss over
    exec from the process that forked this one (here the harness, which
    holds the oracles' caches), so prefer the address space's VmHWM."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sys.exit(main())
