"""Seeded job lists for the three workloads, each job with its expected answer.

A job hands blockdet only generated text or JSON.  Expected answers come
from refs.py (harness code), from closed forms and constructions, or from
blockdet's bounded oracles (`base_language`, with `marked_language_oracle`
as a cross-check), which are never timed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import refs

# Per workload: the fixed per-job time limit (a failed job is charged it),
# the percentile reported as verdict_tail_ms, and the least number of jobs a
# run completes, so that at least 10 jobs lie beyond that percentile.
WORKLOADS = {
    "interactive": {"limit_s": 0.25, "tail_pct": 95, "min_jobs": 200},
    "schema": {"limit_s": 30.0, "tail_pct": 85, "min_jobs": 70},
    "blowup": {"limit_s": 30.0, "tail_pct": 85, "min_jobs": 70},
}

# Interactive expressions have at most 6 positions.  Language checks compare
# words of at most ORACLE_LEN letters, and marked_language_oracle runs with
# words of at most ORACLE_LEN symbols.  At that bound the oracle misses a few
# lookahead violations whose witness words are longer (about one expression
# in 1500), so it only cross-checks the exact references of refs.py.
ORACLE_LEN = 6
PROBE_UNION_TERMS = 1100
PROBE_PAREN_DEPTH = 1500
PROBE_CHAIN = (1500, 1499)  # 3000 states with the initial one


class SetupError(Exception):
    """The benchmark's own references disagree; no job is run."""


# --- interactive ---------------------------------------------------------------------


def random_expression(rng: random.Random, max_positions: int, max_width: int):
    """A random trimmed expression over {a,b,c} with 1..max_positions blocks."""

    def node(budget: int, depth: int):
        choices = ["lit"]
        if budget >= 1 and depth < 6:
            choices += ["alt", "seq", "star", "star"]
        if depth > 0:
            choices.append("eps")
        kind = rng.choice(choices)
        if kind == "eps" or budget <= 0:
            return ("eps",), 0
        if kind == "lit":
            width = rng.randint(1, max_width)
            return ("lit", "".join(rng.choice("abc") for _ in range(width))), 1
        if kind == "star":
            child, used = node(budget, depth + 1)
            return ("star", child), used
        left, used_left = node(budget, depth + 1)
        right_budget = budget - used_left if kind == "seq" else budget
        right, used_right = node(max(0, right_budget), depth + 1)
        return (kind, [left, right]), used_left + used_right

    while True:
        expr, _ = node(max_positions, 0)
        if 1 <= len(refs.Positions(expr).blocks) <= max_positions:
            return expr


def random_automaton(rng: random.Random, n_states: int, labels: str, dfa: bool) -> dict:
    """A random automaton on states s0..s{n-1}, s0 initial, every state
    reachable from s0, the last state and a random few more final."""
    states = [f"s{i}" for i in range(n_states)]
    transitions = set()
    used = set()
    for i in range(1, n_states):
        source = states[rng.randrange(i)]
        free = [c for c in labels if (source, c) not in used] if dfa else list(labels)
        if not free:
            source, free = states[i - 1], [c for c in labels if (states[i - 1], c) not in used]
        label = rng.choice(free)
        transitions.add((source, label, states[i]))
        used.add((source, label))
    for _ in range(n_states):
        source, target, label = rng.choice(states), rng.choice(states), rng.choice(labels)
        if dfa and (source, label) in used:
            continue
        transitions.add((source, label, target))
        used.add((source, label))
    finals = {states[-1]} | {q for q in states if rng.random() < 0.3}
    return refs.automaton_json(states, ["s0"], finals, transitions)


def _eliminable(data: dict) -> list[str]:
    fixed = set(data["initials"]) | set(data["finals"])
    loops = {s for s, _, t in refs.transition_set(data) if s == t}
    return [q for q in data["states"] if q not in fixed and q not in loops]


def _equal_language_copy(rng: random.Random, data: dict) -> dict:
    """Rename every state, then give one non-initial state a twin with the
    same outgoing transitions and finality and move some of its incoming
    transitions to the twin: another automaton with the same language."""
    order = rng.sample(data["states"], len(data["states"]))
    rename = {q: f"t{i}" for i, q in enumerate(order)}
    transitions = {(rename[s], label, rename[t]) for s, label, t in refs.transition_set(data)}
    (initial,) = [rename[q] for q in data["initials"]]
    finals = {rename[q] for q in data["finals"]}
    victim = rng.choice(sorted(set(rename.values()) - {initial}))
    twin = victim + "x"
    moved = {tr for tr in transitions if tr[2] == victim and rng.random() < 0.5}
    transitions -= moved
    transitions |= {(s, label, twin) for s, label, _ in moved}
    transitions |= {(twin, label, t) for s, label, t in transitions if s == victim}
    if victim in finals:
        finals.add(twin)
    return refs.automaton_json([*rename.values(), twin], [initial], finals, transitions)


def _different_language_copy(rng: random.Random, data: dict) -> dict | None:
    """Flip the finality of one state so that the languages differ on a
    word of at most 8 letters; None when no single flip does."""
    base = refs.words(data, 8)
    for q in rng.sample(data["states"], len(data["states"])):
        other = refs.automaton_json(
            data["states"], data["initials"], set(data["finals"]) ^ {q},
            refs.transition_set(data),
        )
        if refs.words(other, 8) != base:
            return other
    return None


class InteractiveBuilder:
    """One pass: 27 rounds of 11 verbs, then 3 robustness probes (1 %)."""

    ROUNDS = 27

    def __init__(self, rng: random.Random, workdir: Path):
        import blockdet

        self.bd = blockdet
        self.rng = rng
        self.workdir = workdir
        self.jobs: list[dict] = []
        workdir.mkdir(parents=True, exist_ok=True)

    def _file(self, name: str, data: dict) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def _add(self, verb: str, argv: list, expect: dict, **fields) -> dict:
        job = {"kind": "cli", "verb": verb, "argv": argv, "expect": expect, **fields}
        self.jobs.append(job)
        return job

    def _oracle_sound(self, kind: str, expr, k: int, expected: bool) -> None:
        """The bounded oracle only ever errs towards 'holds': when it finds
        a violation, the harness reference must agree."""
        found = self.bd.marked_language_oracle(kind, self.bd.parse(refs.render(expr)), k, ORACLE_LEN)
        if not found.verdict and expected:
            raise SetupError(f"{kind} oracle refutes {refs.render(expr)} at k={k}")

    def _language(self, expr) -> list[str]:
        return sorted(self.bd.base_language(self.bd.parse(refs.render(expr)), ORACLE_LEN))

    def build(self) -> list[dict]:
        rng = self.rng
        for r in range(self.ROUNDS):
            e = random_expression(rng, 6, 3)
            text = refs.render(e)
            det = refs.is_deterministic(refs.letter_expansion(e))
            self._add("one-unambiguous", ["check", "one-unambiguous", text],
                      {"holds_if": det}, expr=text)
            self._add("bkw", ["bkw", text], {"holds_if": det, "agrees_with_previous": True},
                      expr=text)

            e, k = random_expression(rng, 6, 3), rng.randint(1, 3)
            holds = refs.is_block_deterministic(e, k)
            self._oracle_sound("block", e, k, holds)
            self._add("block", ["check", "block", refs.render(e), "-k", str(k)],
                      {"exit": 0 if holds else 1}, expr=refs.render(e), k=k)

            e, k = random_expression(rng, 6, 1), rng.randint(1, 3)
            holds = refs.is_lookahead_deterministic(e, k)
            self._oracle_sound("lookahead", e, k, holds)
            self._add("lookahead", ["check", "lookahead", refs.render(e), "-k", str(k)],
                      {"exit": 0 if holds else 1}, expr=refs.render(e), k=k)

            e = random_expression(rng, 6, 1)
            least = refs.min_lookahead(e)
            for k in (1, 2, 3):
                self._oracle_sound("lookahead", e, k, least is not None and least <= k)
            self._add("min-lookahead", ["check", "min-lookahead", refs.render(e)],
                      {"min_lookahead": least}, expr=refs.render(e))

            # A k-block deterministic Glushkov automaton abstracts to the
            # Glushkov automaton of a deterministic expression, which the
            # certificate accepts; otherwise its first test already fails.
            e, k = random_expression(rng, 6, 3), rng.randint(1, 3)
            holds = refs.is_block_deterministic(e, k)
            self._add("certify", ["certify", refs.render(e), "-k", str(k)],
                      {"exit": 0 if holds else 1}, expr=refs.render(e), k=k)

            e = random_expression(rng, 6, 3)
            self._add("chi", ["chi", refs.render(e)], {"language": self._language(e)},
                      expr=refs.render(e))

            e = random_expression(rng, 6, 3)
            self._add("glushkov", ["glushkov", refs.render(e)],
                      {"language": self._language(e)}, expr=refs.render(e))

            while True:
                data = random_automaton(rng, rng.randint(4, 6), "ab" if r % 2 else "abc", dfa=False)
                data["transitions"] = [
                    dict(t, label=t["label"] * rng.choice((1, 1, 2))) for t in data["transitions"]
                ]
                candidates = _eliminable(data)
                if candidates:
                    break
            state = rng.choice(candidates)
            path = self._file(f"elim{r}", data)
            self._add("eliminate", ["eliminate", path, "-q", state],
                      {"language": sorted(refs.words(data, 8)), "max_letters": 8},
                      files=[path], state=state)

            data = random_automaton(rng, rng.randint(4, 7), "abc", dfa=True)
            path = self._file(f"dfa{r}", data)
            self._add("min", ["min", path],
                      {"language": sorted(refs.words(data, 8)), "max_letters": 8, "dfa": True,
                       "max_states": len(data["states"])},
                      files=[path])

            same = r % 2 == 0
            other = None
            while other is None:
                data = random_automaton(rng, rng.randint(3, 5), "ab", dfa=False)
                other = _equal_language_copy(rng, data) if same else _different_language_copy(rng, data)
            paths = [self._file(f"eqa{r}", data), self._file(f"eqb{r}", other)]
            self._add("equiv", ["equiv", *paths], {"exit": 0 if same else 1}, files=paths)

        union = "+".join(["a"] * PROBE_UNION_TERMS)
        self._add("one-unambiguous", ["check", "one-unambiguous", union], {"exit": 0},
                  expr=union, probe=True)
        nested = "(" * PROBE_PAREN_DEPTH + "a" + ")" * PROBE_PAREN_DEPTH
        self._add("block", ["check", "block", nested, "-k", "1"], {"exit": 0},
                  expr=nested, k=1, probe=True)
        left, right = PROBE_CHAIN
        path = self._file("chain", refs.chain_automaton(left, right))
        self._add("min-lookahead", ["check", "min-lookahead", path],
                  {"min_lookahead": refs.chain_min_lookahead(left, right)},
                  file=path, probe=True)
        for job in self.jobs:
            job["rung"] = "probe" if job.get("probe") else job["verb"]
        return self.jobs


def build_interactive(rng: random.Random, workdir: Path) -> list[dict]:
    return InteractiveBuilder(rng, workdir).build()


# --- schema --------------------------------------------------------------------------

LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
_X = ("lit", None)

# One unit of particles, 17 positions: a required element, then an optional
# one, a starred one, a choice, and starred or optional groups, one with a
# nested star.
UNIT = [
    _X,
    ("opt", _X),
    ("star", _X),
    ("alt", [_X, _X, _X]),
    ("star", ("seq", [_X, ("opt", _X)])),
    ("star", ("alt", [_X, ("seq", [_X, _X])])),
    ("star", ("seq", [_X, ("star", ("alt", [_X, _X])), ("opt", _X)])),
    ("opt", ("seq", [_X, _X])),
]
UNIT_POSITIONS = 17
MODEL_UNITS = (3, 6, 12)  # 51, 102, 204 positions
MODELS_PER_RUNG = (2, 4, 2)  # puts the median job inside the 102-position rung
TAG_COUNTS = (12, 24, 48)
TAG_LETTERS = "abcdefghijklmnop"


def _fill(node, letters):
    """Replace placeholder literals left to right."""
    kind = node[0]
    if kind == "lit":
        return ("lit", next(letters))
    if kind in ("star", "opt"):
        return (kind, _fill(node[1], letters))
    return (kind, [_fill(child, letters) for child in node[1]])


def content_model(rng: random.Random, units: int):
    """A sequence of `units` copies of UNIT, each with its particles after
    the first in seeded order, and element names recoloured so that no two
    alternatives after one prefix share a name: the Glushkov automaton is
    deterministic by construction.  The required element that opens each
    unit keeps runs of optional particles, and so the Follow sets, short."""
    particles = []
    for _ in range(units):
        rest = UNIT[1:]
        rng.shuffle(rest)
        particles += [UNIT[0], *rest]
    shape = ("seq", particles)
    pos = refs.Positions(_fill(shape, iter(range(10**9))))
    clashes = {p: set() for p in range(len(pos.blocks))}
    for choices in pos.choice_sets():
        for p in choices:
            clashes[p] |= choices - {p}
    colour: dict = {}
    order = list(clashes)
    rng.shuffle(order)
    for p in order:
        taken = {colour[q] for q in clashes[p] if q in colour}
        colour[p] = rng.choice([c for c in LETTERS if c not in taken])
    return _fill(shape, iter(colour[p] for p in range(len(pos.blocks))))


def tag_group(rng: random.Random, count: int, width: int):
    tags = set()
    while len(tags) < count:
        tags.add("".join(rng.choice(TAG_LETTERS) for _ in range(width)))
    ordered = sorted(tags)
    rng.shuffle(ordered)
    return ("star", ("alt", [("lit", t) for t in ordered])), ordered


def build_schema(rng: random.Random, workdir: Path | None = None) -> list[dict]:
    jobs: list[dict] = []
    for rung, units in enumerate(MODEL_UNITS):
        for _ in range(MODELS_PER_RUNG[rung]):
            model = content_model(rng, units)
            jobs.append({"kind": "schema", "ladder": "models", "size": units * UNIT_POSITIONS,
                         "text": refs.render(model), "k": 1,
                         "expect": {"block": True, "bkw": True}})
        count = TAG_COUNTS[rung]
        for width in (2, 3):
            group, tags = tag_group(rng, count, width)
            jobs.append({"kind": "schema", "ladder": "tags", "size": count,
                         "text": refs.render(group), "k": width,
                         "expect": {"block": True, "bkw": True,
                                    "min_states": refs.tag_group_min_states(tags)}})
    return _rungs(jobs)


# --- blowup ----------------------------------------------------------------------------

EXP_N = (8, 9, 10)
DICT_WORDS = (100, 200, 400)
DICT_LENGTH = 12
WITNESSES = (("hanwood_Mk", (20, 40, 80)), ("unary_Aj", (20, 40, 80)), ("block_Ak", (4, 5, 6)))


def build_blowup(rng: random.Random, workdir: Path | None = None) -> list[dict]:
    jobs: list[dict] = []
    for n in EXP_N:
        x, y = rng.sample("abcdefghijklmnopqrstuvwxyz", 2)
        either = ("alt", [("lit", x), ("lit", y)])
        expr = ("seq", [("star", either), ("lit", x)] + [either] * n)
        jobs.append({"kind": "exp", "ladder": "exp", "size": 2 ** (n + 1),
                     "text": refs.render(expr),
                     "expect": {"min_states": 2 ** (n + 1), "bkw": False, "equivalent": True}})
    for m in DICT_WORDS:
        words = set()
        while len(words) < m:
            words.add("".join(rng.choice("ab") for _ in range(DICT_LENGTH)))
        ordered = sorted(words)
        rng.shuffle(ordered)
        k = refs.dictionary_min_lookahead(ordered)
        expect = {"min_lookahead": k, "at_k": True}
        if k > 1:
            expect["below_k"] = False
        jobs.append({"kind": "dict", "ladder": "dict", "size": m,
                     "text": "+".join(ordered), "expect": expect})
    for family, parameters in WITNESSES:
        for p in parameters:
            job = {"kind": "witness", "ladder": family, "size": p, "family": family,
                   "parameter": p, "expect": {"passed": True}}
            if family == "block_Ak":
                job["chain"] = refs.block_ak_json(p)
                job["eliminate"] = refs.block_ak_chain_states(p)
                job["expect"]["eliminated"] = sorted(refs.block_bk_transitions(p))
            jobs.append(job)
    return _rungs(jobs)


def _rungs(jobs: list[dict]) -> list[dict]:
    for job in jobs:
        job["rung"] = f"{job['ladder']}-{job['size']}"
    return jobs


BUILDERS = {
    "interactive": build_interactive,
    "schema": build_schema,
    "blowup": build_blowup,
}

# A run's job list is this many independent groups, each a full mix of the
# workload's rungs, each run by its own workload process.
GROUPS = 4


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The run's job list: GROUPS groups from one seeded generator, jobs
    numbered across groups."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[dict] = []
    for group in range(GROUPS):
        for job in BUILDERS[workload](rng, workdir / f"group{group}"):
            job.update(id=len(jobs), group=group)
            jobs.append(job)
    return jobs


# --- checking observed outputs ------------------------------------------------------------


class Checker:
    """Compares each job's observed output with its expected answer."""

    def __init__(self, jobs: list[dict]):
        import blockdet

        self.bd = blockdet
        self.jobs = {job["id"]: job for job in jobs}
        self.exits: dict = {}
        self._seen: set = set()

    def check(self, job_id: int, out: dict, stdout: str) -> str | None:
        """None when the output is right, else what is wrong."""
        job = self.jobs[job_id]
        expect = job["expect"]
        if job["kind"] != "cli":
            got = {key: out.get(key) for key in expect}
            if "eliminated" in got:
                got["eliminated"] = sorted(
                    (t["from"], t["label"], t["to"]) for t in out["eliminated"]
                )
                expect = dict(expect, eliminated=[tuple(t) for t in expect["eliminated"]])
            return None if got == expect else f"expected {expect}, got {got}"
        code = out["exit"]
        if code not in (0, 1):
            return f"exit code {code}"
        if "exit" in expect and code != expect["exit"]:
            return f"exit {code}, expected {expect['exit']}"
        if "holds_if" in expect:
            if expect["holds_if"] and code != 0:
                return "deterministic letter expansion, yet not one-unambiguous"
            self.exits[job_id] = code
            partner = job_id - 1 if expect.get("agrees_with_previous") else None
            if partner is not None and self.exits.get(partner, code) != code:
                return f"bkw says {code}, check one-unambiguous said {self.exits[partner]}"
        if (job_id, stdout) in self._seen:
            return None
        problem = self._check_stdout(job, expect, json.loads(stdout))
        if problem is None:
            self._seen.add((job_id, stdout))
        return problem

    def _check_stdout(self, job: dict, expect: dict, data) -> str | None:
        if "min_lookahead" in expect:
            got = data["min_lookahead"]
            got = None if got == "none" else got
            return None if got == expect["min_lookahead"] else (
                f"min lookahead {got}, expected {expect['min_lookahead']}")
        if "language" not in expect:
            return None
        if job["verb"] == "chi":
            plain = self.bd.parse(data["plain"])
            got = sorted(self.bd.base_language(plain, ORACLE_LEN))
        else:
            got = sorted(refs.words(data, expect.get("max_letters", ORACLE_LEN)))
        if got != expect["language"]:
            return f"language {got[:8]}..., expected {expect['language'][:8]}..."
        if expect.get("dfa") and not refs.is_dfa(data):
            return "minimized automaton is not deterministic"
        if "max_states" in expect and len(data["states"]) > expect["max_states"]:
            return "minimized automaton grew"
        return None
