"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import blockdet as bd  # noqa: E402
from blockdet import determinism as dt  # noqa: E402

import gen  # noqa: E402
import layers  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _glushkov(node):
    return bd.glushkov(bd.parse(refs.render(node))).automaton


class SeedTest(unittest.TestCase):
    def _group(self, workload: str, seed: int, workdir: Path) -> list[dict]:
        return gen.BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)

    def test_same_seed_same_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in gen.BUILDERS:
                first = self._group(workload, 5, Path(tmp))
                files = {p.name: p.read_text() for p in Path(tmp).iterdir()}
                again = self._group(workload, 5, Path(tmp))
                self.assertEqual(first, again)
                self.assertEqual(files, {p.name: p.read_text() for p in Path(tmp).iterdir()})

    def test_other_seed_other_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in gen.BUILDERS:
                self.assertNotEqual(self._group(workload, 5, Path(tmp)),
                                    self._group(workload, 6, Path(tmp)))

    def test_groups_hold_the_same_mix(self):
        jobs = gen.build("schema", 5, Path("unused"))
        self.assertEqual([job["id"] for job in jobs], list(range(len(jobs))))
        mixes = [sorted(job["rung"] for job in jobs if job["group"] == g)
                 for g in range(gen.GROUPS)]
        self.assertTrue(all(mix == mixes[0] for mix in mixes))
        self.assertEqual(len({job["text"] for job in jobs}), len(jobs))

    def test_seed_is_a_required_argument(self):
        with self.assertRaises(SystemExit):
            run.main(["--workload", "schema", "--seconds", "1"])


class ReferenceTest(unittest.TestCase):
    def test_recoloured_models_have_deterministic_glushkov(self):
        rng = random.Random(1)
        for units in (1, 2, 3, 6):
            for _ in range(3):
                model = gen.content_model(rng, units)
                a = _glushkov(model)
                self.assertTrue(bd.is_deterministic(a), refs.render(model))
                self.assertEqual(len(a.states), units * gen.UNIT_POSITIONS + 1)

    def test_lcp_formula_matches_min_lookahead(self):
        rng = random.Random(2)
        for _ in range(200):
            length = rng.randint(2, 8)
            words = {"".join(rng.choice("ab") for _ in range(rng.randint(2, length)))
                     for _ in range(rng.randint(2, 30))}
            a = bd.glushkov(bd.parse("+".join(sorted(words)))).automaton
            self.assertEqual(dt.min_lookahead(a), refs.dictionary_min_lookahead(words), words)

    def test_expression_references_match_the_program(self):
        rng = random.Random(3)
        for _ in range(150):
            e = gen.random_expression(rng, 6, 3)
            a = _glushkov(e)
            for k in (1, 2, 3):
                self.assertEqual(refs.is_block_deterministic(e, k),
                                 dt.is_k_block_deterministic(a, k).verdict, refs.render(e))
            e = gen.random_expression(rng, 6, 1)
            a = _glushkov(e)
            for k in (1, 2, 3):
                self.assertEqual(refs.is_lookahead_deterministic(e, k),
                                 dt.is_k_lookahead_deterministic(a, k).verdict, refs.render(e))
            self.assertEqual(refs.min_lookahead(e), dt.min_lookahead(a), refs.render(e))

    def test_tag_group_min_states(self):
        rng = random.Random(4)
        for count, width in ((5, 2), (12, 3), (20, 2)):
            group, tags = gen.tag_group(rng, count, width)
            m = bd.minimal_dfa(bd.parse(refs.render(group)))
            self.assertEqual(len(m.states), refs.tag_group_min_states(tags))

    def test_chain_closed_form(self):
        for left, right in ((3, 2), (5, 5), (7, 4)):
            a = bd.from_json(refs.chain_automaton(left, right))
            self.assertEqual(dt.min_lookahead(a), refs.chain_min_lookahead(left, right))

    def test_words_match_enumerate_words(self):
        rng = random.Random(5)
        for _ in range(30):
            data = gen.random_automaton(rng, rng.randint(3, 6), "ab", dfa=False)
            self.assertEqual(refs.words(data, 6), set(bd.enumerate_words(bd.from_json(data), 6)))

    def test_equal_and_different_copies(self):
        rng = random.Random(6)
        for _ in range(30):
            data = gen.random_automaton(rng, rng.randint(3, 5), "ab", dfa=False)
            a = bd.from_json(data)
            self.assertTrue(bd.equivalent(a, bd.from_json(gen._equal_language_copy(rng, data))))
            other = gen._different_language_copy(rng, data)
            if other is not None:
                self.assertFalse(bd.equivalent(a, bd.from_json(other)))


class MetricNameTest(unittest.TestCase):
    def test_names_and_declaration(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual([m["name"] for m in declared["end_to_end"]],
                         [m["name"] for m in run.END_TO_END])
        self.assertEqual(declared["per_layer"], layers.metric_specs())
        self.assertEqual([w["name"] for w in declared["workloads"]], list(gen.WORKLOADS))


class WorkerTest(unittest.TestCase):
    def test_traced_pass_gives_every_per_layer_metric(self):
        jobs = [j for j in gen.build("schema", 7, Path("unused")) if j["size"] == 12]
        payload = {"jobs": jobs, "limit_s": 30, "seconds": 0, "min_jobs": 1,
                   "hard_stop_s": 60, "trace": True, "pass_base": 0}
        done = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(payload),
                              capture_output=True, text=True, timeout=120, check=True)
        data = json.loads(done.stdout)
        self.assertIsNone(run.verify(jobs, data["results"]))
        traced = layers.TracedRun("schema", jobs, data["spans"], data["results"])
        values = traced.metrics()
        self.assertEqual(set(values), {m["name"] for m in layers.metric_specs()})
        self.assertGreater(values["bkw.test.self_s"], 0)
        self.assertEqual(values["syntax.positions.count"], gen.GROUPS * 2 * 12)


if __name__ == "__main__":
    unittest.main()
