"""The package's one depth-first walk, `automaton.longest_path`, and its
wrapper `postorder`: checked on seeded random digraphs against the walk it
replaced (`conftest.reference_postorder`) and a brute-force longest path,
and on long chains and cycles without recursion."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import blockdet
from blockdet.automaton import longest_path, postorder

from conftest import reference_postorder


def _random_graphs(seed: int, count: int):
    """Digraphs on up to 10 nodes, as sorted successor lists, each with a
    few roots: some acyclic, some with self-loops, back edges and cycles."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 10)
        density = rng.choice([0.15, 0.3, 0.5])
        back = rng.choice([0.0, 0.0, 0.05, 0.2])  # chance of an edge to an earlier node
        loop = rng.choice([0.0, 0.0, 0.1])
        graph = {
            u: [
                v
                for v in range(n)
                if rng.random() < (density if v > u else back if v < u else loop)
            ]
            for u in range(n)
        }
        roots = [rng.randrange(n) for _ in range(rng.randint(1, 4))]
        yield graph, roots


def _reach(graph: dict, node) -> set:
    """The nodes reachable from ``node`` by at least one edge."""
    seen: set = set()
    agenda = list(graph[node])
    while agenda:
        q = agenda.pop()
        if q not in seen:
            seen.add(q)
            agenda.extend(graph[q])
    return seen


def _brute_longest(graph: dict, root) -> int:
    """-1 when a cycle is reachable from the root, else the number of edges
    on the longest of all its paths, every one of them listed."""
    if any(q in _reach(graph, q) for q in _reach(graph, root) | {root}):
        return -1
    longest = 0
    paths = [[root]]
    while paths:
        path = paths.pop()
        longest = max(longest, len(path) - 1)
        paths += [path + [q] for q in graph[path[-1]]]
    return longest


def test_postorder_matches_the_replaced_walk():
    shapes = {"cycle": 0, "order": 0}
    for graph, roots in _random_graphs(23, 600):
        entered = []

        def successors(q):
            entered.append(q)
            return graph[q]

        order = postorder(roots, successors)
        assert order == reference_postorder(roots, graph.__getitem__), (graph, roots)
        assert len(entered) == len(set(entered))  # one call per node
        shapes["cycle" if order is None else "order"] += 1
    assert min(shapes.values()) > 100, shapes


def test_longest_path_matches_brute_force():
    seen = {"cycle": 0, "deep": 0, "shared": 0}
    for graph, roots in _random_graphs(29, 600):
        expected = {q: _brute_longest(graph, q) for q in graph}
        finished: dict = {}
        for root in roots:
            if root in finished:
                seen["shared"] += 1
            else:
                assert longest_path(root, graph.__getitem__, finished) == expected[root], graph
            # a cycle marks the whole path -1, so the root is finished too
            assert finished[root] == expected[root], (graph, root)
            seen["cycle"] += expected[root] < 0
            seen["deep"] += expected[root] >= 2
        assert all(finished[q] == expected[q] for q in finished), graph
    assert min(seen.values()) > 50, seen


_NO_RECURSION_SCRIPT = """
import json, sys
from blockdet.automaton import longest_path, postorder
n = 100_000
chain = lambda q: [q + 1] if q + 1 < n else []
cycle = lambda q: [(q + 1) % n]
sys.setrecursionlimit(60)
answers = [longest_path(0, chain, {}), postorder([0], chain) == list(range(n - 1, -1, -1))]
answers += [longest_path(0, cycle, {}), postorder([0], cycle)]
sys.setrecursionlimit(1000)
print(json.dumps(answers))
"""


def test_long_chains_and_cycles_need_no_recursion():
    src = str(Path(blockdet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_RECURSION_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == [99_999, True, -1, None]
