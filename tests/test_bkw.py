"""Orbit analysis, the BKW decision procedure and the block certificate."""

import itertools
import json
import os
import random
import signal
import string
import subprocess
import sys
from pathlib import Path

import pytest

import blockdet
from blockdet import bkw as bkw_module
from blockdet import (
    BlockAutomaton,
    BlockSymbol,
    alphabetic_image,
    bkw_test,
    bkw_to_json,
    certify_k_block_language,
    consistent_symbols,
    glushkov,
    is_deterministic,
    is_k_block_deterministic,
    is_one_unambiguous,
    minimal_dfa,
    minimize,
    orbit_automaton,
    orbit_decomposition,
    orbit_property,
    parse,
    s_cut,
)
from blockdet.bkw import BkwTrace, render_trace
from blockdet.witnesses import block_ak, block_bk, hanwood_mk

from conftest import (
    glushkov_union_tail,
    min_dfa_two_block,
    nested_orbits,
    random_expression,
    rewired_counterexample,
)


class TestOrbitDecomposition:
    def test_min_dfa_two_block(self):
        dec = orbit_decomposition(min_dfa_two_block())
        parts = {o.states for o in dec.orbits}
        assert parts == {
            frozenset({"i", "1"}),
            frozenset({"2"}),
            frozenset({"3"}),
            frozenset({"4"}),
        }
        nontrivial = {o.states for o in dec.nontrivial()}
        assert nontrivial == {frozenset({"i", "1"}), frozenset({"4"})}
        assert dec.orbit_of("i").out_gates == frozenset({"i", "1"})

    def test_block_ak(self):
        dec = orbit_decomposition(block_ak(2))
        nontrivial = {o.states for o in dec.nontrivial()}
        assert nontrivial == {frozenset({"β2", "α2", "α1"})}
        trivial = {o.states for o in dec.orbits if o.trivial}
        assert trivial == {frozenset({"β1"}), frozenset({"f"})}

    def test_single_state_without_loop(self):
        a = BlockAutomaton.make(states={"q"}, initials={"q"}, finals={"q"})
        dec = orbit_decomposition(a)
        assert len(dec.orbits) == 1 and dec.orbits[0].trivial

    def test_gates(self):
        dec = orbit_decomposition(min_dfa_two_block())
        orbit = dec.orbit_of("4")
        assert orbit.out_gates == frozenset({"4"})  # final
        assert orbit.in_gates == frozenset({"4"})  # entered from outside
        assert dec.orbit_of("i").in_gates == frozenset({"i"})  # initial
        with pytest.raises(KeyError, match="zz"):
            dec.orbit_of("zz")

    def test_matches_reachability_quotient(self):
        # Cross-check the SCC computation against the mutual-reachability
        # definition, and each orbit's flags, orbit automata and the orbit
        # property against theirs, on random automata of up to 30 states:
        # sparse ones (mostly trivial orbits and chains of small cycles),
        # medium ones and dense, many-cycle ones.
        rng = random.Random(4242)
        failing = 0
        for run in range(300):
            n = rng.randint(1, 30)
            low, high = [(0, n), (n, 2 * n), (2 * n, 5 * n)][run % 3]
            states = [f"s{i}" for i in range(n)]
            transitions = [
                (rng.choice(states), rng.choice("abc"), rng.choice(states))
                for _ in range(rng.randint(low, high))
            ]
            a = BlockAutomaton.make(
                states=states,
                initials={q for q in states if rng.random() < 0.3},
                finals={q for q in states if rng.random() < 0.3},
                transitions=set(transitions),
            )
            successors = {q: {t.target for t in a.transitions if t.source == q} for q in states}
            reach = {q: _closure(successors, q) for q in states}
            expected = {
                frozenset(p for p in states if q in reach[p] and p in reach[q])
                for q in states
            }
            orbits = orbit_decomposition(a).orbits
            assert {o.states for o in orbits} == expected
            loops = {t.source for t in a.transitions if t.source == t.target}
            for o in orbits:
                assert o.trivial == (len(o.states) == 1 and not o.states & loops)
                assert o.in_gates == {
                    q
                    for q in o.states
                    if q in a.initials
                    or any(t.target == q and t.source not in o.states for t in a.transitions)
                }
                assert o.out_gates == _out_gates(a, o.states)
            for part in expected:
                for q in part:
                    sub = orbit_automaton(a, q)
                    assert sub.states == part and sub.initials == {q}
                    assert sub.finals == _out_gates(a, part)
                    assert sub.transitions == {
                        t for t in a.transitions if t.source in part and t.target in part
                    }
            result = orbit_property(a)
            violation = _first_orbit_violation(a, expected)
            assert result.holds == (violation is None)
            if violation is not None:
                failing += 1
                assert (result.orbit, result.pair, result.reason) == violation
        assert failing > 20


class TestOrbitProperty:
    def test_min_dfa_two_block_fails(self):
        result = orbit_property(min_dfa_two_block())
        assert not result.holds
        assert result.orbit == frozenset({"i", "1"})

    def test_union_tail_holds(self):
        assert orbit_property(glushkov_union_tail()).holds

    def test_single_out_gate_vacuous(self):
        a = BlockAutomaton.make(
            states={"p", "q"},
            initials={"p"},
            finals={"q"},
            transitions=[("p", "a", "q"), ("q", "a", "p")],
        )
        assert orbit_property(a).holds

    def test_final_disagreement(self):
        a = BlockAutomaton.make(
            states={"p", "q", "r"},
            initials={"p"},
            finals={"q", "r"},
            transitions=[("p", "a", "q"), ("q", "a", "p"), ("p", "b", "r")],
        )
        # orbit {p,q}: q is final, p is not, both are out-gates
        result = orbit_property(a)
        assert not result.holds
        assert result.orbit == frozenset({"p", "q"})


class TestConsistentSymbols:
    def test_min_dfa_two_block(self):
        assert consistent_symbols(min_dfa_two_block()) == frozenset({BlockSymbol("b")})

    def test_loop_final(self):
        a = BlockAutomaton.make(
            states={"q"}, initials={"q"}, finals={"q"}, transitions=[("q", "a", "q")]
        )
        assert consistent_symbols(a) == frozenset({BlockSymbol("a")})

    def test_diverging_targets_excluded(self):
        a = BlockAutomaton.make(
            states={"i", "p", "q"},
            initials={"i"},
            finals={"p", "q"},
            transitions=[("i", "a", "p"), ("p", "b", "q"), ("p", "a", "p"), ("q", "a", "q")],
        )
        assert consistent_symbols(a) == frozenset()

    def test_nondeterministic_rejected(self):
        with pytest.raises(ValueError):
            consistent_symbols(glushkov_union_tail())


class TestSCut:
    def test_min_dfa_two_block(self):
        cut = s_cut(min_dfa_two_block(), {BlockSymbol("b")})
        removed = {("4", "b", "4")}
        remaining = {(t.source, t.label.letters, t.target) for t in cut.transitions}
        original = {
            (t.source, t.label.letters, t.target) for t in min_dfa_two_block().transitions
        }
        assert remaining == original - removed

    def test_empty_set_is_identity_on_trimmed(self):
        a = min_dfa_two_block()
        assert s_cut(a, set()) == a

    def test_single_loop(self):
        a = BlockAutomaton.make(
            states={"q"}, initials={"q"}, finals={"q"}, transitions=[("q", "a", "q")]
        )
        cut = s_cut(a, {BlockSymbol("a")})
        assert cut.states == frozenset({"q"}) and not cut.transitions

    def test_inconsistent_set_rejected(self):
        with pytest.raises(ValueError):
            s_cut(min_dfa_two_block(), {BlockSymbol("a")})


class TestOrbitAutomaton:
    def test_min_dfa_cycle(self):
        sub = orbit_automaton(min_dfa_two_block(), "i")
        assert sub.states == frozenset({"i", "1"})
        assert sub.initials == frozenset({"i"})
        assert sub.finals == frozenset({"i", "1"})
        assert {(t.source, t.label.letters, t.target) for t in sub.transitions} == {
            ("i", "a", "1"),
            ("1", "a", "i"),
        }

    def test_trivial_orbit(self):
        sub = orbit_automaton(min_dfa_two_block(), "2")
        assert sub.states == frozenset({"2"})
        assert not sub.transitions
        assert sub.finals == frozenset({"2"})  # 2 exits its orbit, so it is an out-gate

    def test_block_ak_cycle_keeps_inner_loop(self):
        # The restriction keeps the a-loop on α2 that sits inside the orbit.
        sub = orbit_automaton(block_ak(2), "β2")
        assert sub.states == frozenset({"β2", "α2", "α1"})
        assert {(t.source, t.label.letters, t.target) for t in sub.transitions} == {
            ("β2", "a", "α2"),
            ("α2", "a", "α2"),
            ("α2", "b", "α1"),
            ("α1", "c", "β2"),
        }

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown state: zz"):
            orbit_automaton(min_dfa_two_block(), "zz")


class TestBkwTest:
    def test_two_block_min_dfa_fails_on_orbit_property(self):
        trace = bkw_test(min_dfa_two_block())
        assert not trace.verdict
        assert trace.steps.failure == "orbit-property"
        assert trace.steps.violating_orbit == frozenset({"i", "1"})

    def test_union_tail_language_passes(self):
        assert bkw_test(minimal_dfa(parse("(a+b)*a+eps"))).verdict

    def test_two_lookahead_language_fails(self):
        assert not bkw_test(minimal_dfa(parse("b*a(b*a)*(a+b)"))).verdict

    def test_nondeterministic_rejected(self):
        with pytest.raises(ValueError):
            bkw_test(glushkov_union_tail())

    def test_deterministic_glushkov_passes(self, block_corpus):
        # A deterministic position automaton always passes, even unminimized
        # (blocks are treated as atomic symbols).
        hits = 0
        for expr in block_corpus:
            a = glushkov(expr).automaton
            if is_deterministic(a):
                hits += 1
                assert bkw_test(a).verdict
        assert hits > 0

    def test_pass_carries_down_to_minimal(self, width1_corpus):
        for expr in width1_corpus:
            a = glushkov(expr).automaton
            if is_deterministic(a) and bkw_test(a).verdict:
                assert bkw_test(minimize(a)).verdict

    def test_relabelling_invariance(self):
        a = hanwood_mk(3)
        rename = {q: f"s{i}" for i, q in enumerate(sorted(a.states))}
        b = BlockAutomaton.make(
            states=set(rename.values()),
            initials={rename[q] for q in a.initials},
            finals={rename[q] for q in a.finals},
            transitions=[
                (rename[t.source], t.label.letters, rename[t.target]) for t in a.transitions
            ],
        )
        assert bkw_test(minimize(a)).verdict == bkw_test(minimize(b)).verdict

    def test_empty_automaton_passes(self):
        assert bkw_test(BlockAutomaton.make()).verdict

    def test_no_consistent_symbol_failure_reason(self):
        # The unary 3-cycle with finals at distance 0 and 1 is a single
        # non-trivial orbit whose finals send `a` to different states.
        from blockdet.witnesses import unary_aj

        trace = bkw_test(unary_aj(1))
        assert not trace.verdict
        failures = _collect_failures(trace.steps)
        assert "no-consistent-symbol" in failures


class TestOrbitReRooting:
    """BKW minimizes one orbit automaton per orbit and re-roots it at each
    orbit state: from every state of a strongly connected orbit, trimming
    keeps the same states, and refinement never looks at the start."""

    def test_orbit_automata_differ_only_in_initials(self):
        rng = random.Random(2718)
        orbits = shared = 0
        for _ in range(150):
            for m in (minimal_dfa(random_expression(rng, 6, 2)), _random_minimal_dfa(rng)):
                for a in (m, s_cut(m, consistent_symbols(m))):
                    for orbit in orbit_decomposition(a).nontrivial():
                        starts = sorted(orbit.states)
                        minimized = [minimize(orbit_automaton(a, q)) for q in starts]
                        unrooted = {
                            BlockAutomaton(x.states, frozenset(), x.finals, x.transitions)
                            for x in minimized
                        }
                        assert len(unrooted) == 1
                        roots = [x.initials for x in minimized]
                        assert all(len(root) == 1 for root in roots)
                        orbits += len(starts) > 1
                        shared += len(set(roots)) < len(roots)
        assert orbits > 50 and shared > 0

    def test_children_match_per_state_minimize(self):
        rng = random.Random(31)
        checked = rooted = 0
        for _ in range(150):
            m = _random_minimal_dfa(rng)
            root = bkw_test(m).steps
            if root.orbit_property_holds is not True:
                continue
            cut = s_cut(m, consistent_symbols(m))
            children = iter(zip(root.contexts, root.children, strict=True))
            for orbit in orbit_decomposition(cut).nontrivial():
                label = "{" + ",".join(sorted(orbit.states)) + "}"
                subtrees = set()
                for q in sorted(orbit.states):
                    context, child = next(children)
                    sub = minimize(orbit_automaton(cut, q))
                    assert context == f"orbit {label} from {q}, minimized"
                    analysed = bkw_to_json(BkwTrace(child.ok, child))
                    assert analysed == bkw_to_json(bkw_test(sub))
                    subtrees.add(json.dumps(analysed))
                    checked += 1
                rooted += len(subtrees) > 1  # the start state shows in the subtree
            assert next(children, None) is None
        assert checked > 50 and rooted > 0

    def test_one_minimize_per_orbit(self, monkeypatch):
        # 63 three-letter tags: one orbit of 63 states whose orbit automata
        # all minimize to one state.  Minimizing per orbit state made 63 calls.
        tags = ["".join(p) for p in itertools.product("abcd", repeat=3)][:63]
        a = glushkov(parse("(" + "+".join(f"[{t}]" for t in tags) + ")*[zz]")).automaton
        calls = []

        def counting(x):
            calls.append(x)
            return real(x)

        real = bkw_module._quotient
        monkeypatch.setattr(bkw_module, "_quotient", counting)
        assert certify_k_block_language(a, 3)
        assert len(calls) == 1
        orbit = sorted(a.states - {"i", "zz_64"})
        label = "{" + ",".join(orbit) + "}"
        calls.clear()
        root = bkw_test(a).steps
        assert len(calls) == 1
        assert list(root.contexts) == [f"orbit {label} from {q}, minimized" for q in orbit]
        # every re-rooting merges into the one state: one node, 63 edges to it
        assert len(root.children) == 63 and len({id(c) for c in root.children}) == 1
        assert root.children[0].fingerprint == "1 states, 63 transitions"


class TestSharedNodes:
    """BKW analyses each distinct automaton of one call once, and every
    parent shares the node of an automaton met again."""

    def test_nested_orbits_analyse_each_automaton_once(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a)
            return real(a)

        real = bkw_module._bkw_step
        monkeypatch.setattr(bkw_module, "_bkw_step", counting)
        tree_sizes = {2: 4, 3: 10, 4: 32, 5: 130, 6: 652, 7: 3914, 8: 27400}
        for depth in range(2, 13):
            calls.clear()
            trace = bkw_test(minimal_dfa(parse(nested_orbits(depth))))
            assert trace.verdict is True
            # 27,400 analyses at depth 8 before the tree shared its nodes
            assert len(calls) == depth * (depth + 1) // 2 + 1
            assert len(set(calls)) == len(calls)
            if depth in tree_sizes:
                nodes, stack = 0, [trace.steps]
                while stack:
                    nodes += 1
                    stack.extend(stack.pop().children)
                assert nodes == tree_sizes[depth]

    def test_nodes_compare_by_identity(self):
        # 79 analyses unfold to a 217-million-node tree: hashing, comparing
        # or printing a node must not walk it.
        def expire(signum, frame):
            raise TimeoutError("a node walked the tree it unfolds to")

        trace, again = [bkw_test(minimal_dfa(parse(nested_orbits(12)))) for _ in range(2)]
        previous = signal.signal(signal.SIGALRM, expire)
        try:
            for value, other in [(trace.steps, again.steps), (trace, again)]:
                for op in (hash, repr, lambda x: x == x, lambda x: x == other):
                    signal.setitimer(signal.ITIMER_REAL, 0.1)
                    op(value)
                    signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert repr(trace.steps) == (
            "BkwNode(fingerprint='14 states, 25 transitions', consistent=(), "
            "orbit_property_holds=True, failure=None, violating_orbit=None, violating_pair=None)"
        )
        assert again.steps != trace.steps and again != trace
        assert bkw_to_json(again) == bkw_to_json(trace)  # to compare traces

    def test_one_consistent_symbols_per_analysis(self, monkeypatch):
        # `_bkw_step` cuts with the symbols it has just computed, without
        # the check that public `s_cut` makes.
        counts = {"step": 0, "symbols": 0}

        def counting(name, real):
            def wrapper(a):
                counts[name] += 1
                return real(a)

            return wrapper

        monkeypatch.setattr(bkw_module, "_bkw_step", counting("step", bkw_module._bkw_step))
        monkeypatch.setattr(
            bkw_module, "_consistent", counting("symbols", bkw_module._consistent)
        )
        rng = random.Random(31)
        inputs = [parse(nested_orbits(d)) for d in range(1, 6)]
        inputs += [random_expression(rng, 8, 2) for _ in range(60)]
        for expr in inputs:
            bkw_test(minimal_dfa(expr))
        assert counts["step"] > 100 and counts["symbols"] == counts["step"]

    def test_writers_match_a_recursive_reference(self):
        # The reference writes the expanded tree, a context on each child;
        # the writers print each distinct node once, as a numbered step.
        def node_json(node, context):
            data = {
                "fingerprint": node.fingerprint,
                "S": list(node.consistent),
                "orbitProperty": node.orbit_property_holds,
                "failure": node.failure,
                "children": [node_json(c, w) for w, c in zip(node.contexts, node.children)],
            }
            if node.violating_orbit is not None:
                data["violatingOrbit"] = sorted(node.violating_orbit)
            if node.violating_pair is not None:
                data["violatingPair"] = list(node.violating_pair)
            if context is not None:
                data["context"] = context
            return data

        def text_lines(node, context, depth):
            pad = "  " * depth
            yield f"{pad}{context}: {node.fingerprint}, S={{{','.join(node.consistent)}}}"
            if node.failure == "orbit-property":
                orbit = ",".join(sorted(node.violating_orbit))
                yield f"{pad}  FAIL orbit property on {{{orbit}}} (pair {node.violating_pair})"
            elif node.failure == "no-consistent-symbol":
                yield f"{pad}  FAIL single non-trivial orbit without a consistent symbol"
            for w, child in zip(node.contexts, node.children, strict=True):
                yield from text_lines(child, w, depth + 1)

        def expand_json(steps, i, context):
            data = dict(steps[i])
            data["children"] = [expand_json(steps, c["step"], c["context"]) for c in data["children"]]
            if context is not None:
                data["context"] = context
            return data

        def text_steps(text):
            """(head, FAIL lines, [(context, step)]) per step of `render_trace`."""
            steps = []
            for line in text.splitlines()[1:]:
                if line.startswith("step "):
                    number, head = line[len("step "):].split(": ", 1)
                    assert int(number) == len(steps)
                    steps.append((head, [], []))
                elif line.startswith("  FAIL "):
                    steps[-1][1].append(line)
                else:
                    context, _, j = line[2:].rpartition(": step ")
                    steps[-1][2].append((context, int(j)))
            return steps

        def expand_text(steps, i, context, depth):
            head, fails, children = steps[i]
            yield f"{'  ' * depth}{context}: {head}"
            yield from ("  " * depth + line for line in fails)
            for w, j in children:
                yield from expand_text(steps, j, w, depth + 1)

        def first_visits(children_of):
            """Step numbers in the order the steps' child lists first name them."""
            seen = [0]
            for children in children_of:
                seen += [j for j in children if j not in seen]
            return seen

        rng = random.Random(99)
        cd = ["[ab]"]
        for _ in range(5):
            cd.append(f"([cd]{cd[-1]})*[dd]")
        automata = [minimal_dfa(parse(nested_orbits(d))) for d in range(1, 9)]
        automata += [minimal_dfa(parse(text)) for text in cd[1:]]
        automata += [_random_minimal_dfa(rng) for _ in range(80)]
        automata += [minimal_dfa(random_expression(rng, 7, 2)) for _ in range(80)]
        failures = set()
        shared = 0
        for a in automata:
            trace = bkw_test(a)
            distinct, stack = {}, [trace.steps]
            while stack:
                node = stack.pop()
                if id(node) not in distinct:
                    distinct[id(node)] = node
                    stack.extend(node.children)
            data = bkw_to_json(trace)
            assert list(data) == ["verdict", "steps"] and len(data["steps"]) == len(distinct)
            assert first_visits([c["step"] for c in s["children"]] for s in data["steps"]) == list(
                range(len(distinct))
            )
            assert json.dumps({**data, "steps": expand_json(data["steps"], 0, None)}) == json.dumps(
                {"verdict": trace.verdict, "steps": node_json(trace.steps, None)}
            )
            verdict = f"verdict: {'pass' if trace.verdict else 'fail'}"
            text = render_trace(trace)
            steps = text_steps(text)
            assert text.splitlines()[0] == verdict and len(steps) == len(distinct)
            assert [[j for _, j in children] for _, _, children in steps] == [
                [c["step"] for c in s["children"]] for s in data["steps"]
            ]
            assert "\n".join([verdict, *expand_text(steps, 0, "input", 0)]) == "\n".join(
                [verdict, *text_lines(trace.steps, "input", 0)]
            )
            failures |= _collect_failures(trace.steps)
            shared += len(distinct) < sum(1 for _ in _tree(trace.steps))
        assert failures == {"orbit-property", "no-consistent-symbol", "recursion"}
        assert shared > 10


_NO_RECURSION_SCRIPT = """
import json, sys
from blockdet import bkw_test, bkw_to_json, minimal_dfa, parse
from blockdet.bkw import BkwNode, BkwTrace, render_trace
text = "a"
for _ in range(30):
    text = f"c({text})*d"
dfa = minimal_dfa(parse(text))
chain = BkwNode("1 states, 0 transitions", (), True, None)
for level in range(3000):
    chain = BkwNode("1 states, 1 transitions", ("a",), True, None,
                    contexts=(f"level {level}",), children=(chain,))
sys.setrecursionlimit(20)
verdict = bkw_test(dfa).verdict
assert hash(chain) == hash(chain) and chain == chain and repr(chain).startswith("BkwNode(")
steps = bkw_to_json(BkwTrace(True, chain))["steps"]
rendered = render_trace(BkwTrace(True, chain)).splitlines()
depth, step = 0, steps[0]
while step["children"]:
    step = steps[step["children"][0]["step"]]
    depth += 1
sys.setrecursionlimit(1000)
print(json.dumps([verdict, depth, len(steps), len(rendered), rendered[-2:]]))
"""


def test_bkw_needs_no_recursion():
    # 30 nested orbits under a recursion limit of 20, and a 3000-deep trace.
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
    # a verdict line, then per level a step line and its child's line
    deepest = ["  level 0: step 3000", "step 3000: 1 states, 0 transitions, S={}"]
    assert json.loads(done.stdout) == [True, 3000, 3001, 6002, deepest]


class TestIsOneUnambiguous:
    def test_union_tail_language(self):
        assert is_one_unambiguous(parse("(a+b)*a+eps"))

    def test_block_language_not(self):
        assert not is_one_unambiguous(parse("[aa]*([ab]b+ba)b*"))

    def test_epsilon(self):
        assert is_one_unambiguous(parse("eps"))

    def test_empty(self):
        assert is_one_unambiguous(parse("empty"))
        assert minimal_dfa(parse("empty")) == BlockAutomaton.make()

    def test_automaton_input(self):
        assert not is_one_unambiguous(min_dfa_two_block())

    def test_k_block_deterministic_unary_languages_are(self):
        # The paper's theorem: a k-block deterministic unary language is
        # one-unambiguous.  Seed 7: 2,000 expressions with blocks a to aaaa,
        # of which 1,197 are k-block deterministic at their width.
        rng = random.Random(7)
        held = 0
        for _ in range(2000):
            expr = random_expression(rng, max_positions=6, max_width=4, letters="a")
            g = glushkov(expr).automaton
            if is_k_block_deterministic(g, g.width):
                held += 1
                assert is_one_unambiguous(expr), expr
        assert held > 1000

    def test_glushkov_input(self):
        assert is_one_unambiguous(glushkov(parse("(a+b)*a+eps")))


class TestCertify:
    def test_b2(self):
        assert certify_k_block_language(block_bk(2), 2)

    def test_rewired_counterexample(self):
        assert certify_k_block_language(rewired_counterexample(), 2)

    def test_min_dfa_not_one_block(self):
        assert not certify_k_block_language(min_dfa_two_block(), 1)

    def test_width_overflow_fails(self):
        assert not certify_k_block_language(block_bk(3), 2)

    def test_agrees_with_letter_image(self):
        # The paper's certificate: k-block deterministic, and the image with
        # each block renamed to a fresh letter is deterministic and passes BKW.
        # Minimal DFAs add automata that are deterministic but fail BKW.
        rng = random.Random(4242)
        outcomes = set()
        for _ in range(100):
            expr = random_expression(rng, max_positions=6, max_width=3)
            for a in (glushkov(expr).automaton, minimal_dfa(expr)):
                blocks = sorted({t.label for t in a.transitions})
                image = alphabetic_image(
                    a, {b: BlockSymbol(c) for b, c in zip(blocks, string.ascii_letters)}
                )
                for k in (1, 2, 3):
                    block = is_k_block_deterministic(a, k).verdict
                    expected = block and is_deterministic(image) and bkw_test(image).verdict
                    assert certify_k_block_language(a, k) == expected, (a, k)
                    outcomes.add((block, expected))
        assert outcomes == {(False, False), (True, False), (True, True)}


class TestTraceSerialization:
    def test_json_fields(self):
        trace = bkw_test(min_dfa_two_block())
        data = bkw_to_json(trace)
        assert data["verdict"] is False
        (step,) = data["steps"]
        assert list(step) == [
            "fingerprint", "S", "orbitProperty", "failure", "children", "violatingOrbit", "violatingPair"
        ]
        assert step["failure"] == "orbit-property" and step["children"] == []
        assert step["violatingOrbit"] == ["1", "i"]
        assert step["violatingPair"] == list(trace.steps.violating_pair)

    def test_children_name_their_step(self):
        steps = bkw_to_json(bkw_test(minimal_dfa(parse(nested_orbits(2)))))["steps"]
        assert [[(c["context"], c["step"]) for c in s["children"]] for s in steps] == [
            [
                ("orbit {{a_3,c_2},{c_1,d_4}} from {a_3,c_2}, minimized", 1),
                ("orbit {{a_3,c_2},{c_1,d_4}} from {c_1,d_4}, minimized", 2),
            ],
            [("orbit {{a_3,c_2}} from {a_3,c_2}, minimized", 3)],
            [],
            [],
        ]
        assert all(list(c) == ["context", "step"] for s in steps for c in s["children"])

    def test_children_recorded(self):
        trace = bkw_test(minimal_dfa(parse("(a+b)*a+eps")))
        data = bkw_to_json(trace)
        assert data["verdict"] is True

    def test_verdict_iff_no_failure_anywhere(self, width1_corpus):
        for expr in width1_corpus:
            trace = bkw_test(minimal_dfa(expr))
            assert trace.verdict == (not _collect_failures(trace.steps))

    def test_render_trace(self):
        text = render_trace(bkw_test(min_dfa_two_block()))
        assert "verdict: fail" in text
        assert "orbit property" in text


def _random_minimal_dfa(rng):
    states = [f"s{i}" for i in range(rng.randint(2, 7))]
    dfa = BlockAutomaton.make(
        states=states,
        initials={"s0"},
        finals=[q for q in states if rng.random() < 0.4] or ["s0"],
        transitions=[
            (q, c, rng.choice(states)) for q in states for c in "abc" if rng.random() < 0.7
        ],
    )
    return minimize(dfa)


def _tree(node):
    """Each node of the expanded tree under `node`, parents first."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def _collect_failures(node):
    out = set()
    if node.failure:
        out.add(node.failure)
    for child in node.children:
        out |= _collect_failures(child)
    return out


def _out_gates(a, part):
    """The states of `part` that are final or have an edge leaving it."""
    return {
        q
        for q in part
        if q in a.finals or any(t.source == q and t.target not in part for t in a.transitions)
    }


def _first_orbit_violation(a, parts):
    """(orbit, pair, reason) of the first out-gate pair that breaks the orbit
    property, orbits in sorted order, each pair (p, q) over the sorted
    out-gates: finality first, then p's sorted edges leaving the orbit."""
    for part in sorted(parts, key=sorted):
        gates = sorted(_out_gates(a, part))
        leaving = {g: [] for g in gates}
        for t in a.transitions:
            if t.source in leaving and t.target not in part:
                leaving[t.source].append((t.label, t.target))
        for row in leaving.values():
            row.sort()
        for p, q in itertools.permutations(gates, 2):
            if p in a.finals and q not in a.finals:
                return part, (p, q), f"{p} is final but {q} is not"
            for b, r in leaving[p]:
                if (b, r) not in leaving[q]:
                    return part, (p, q), f"{p} leaves via {p} -{b.letters}-> {r} but {q} does not"
    return None


def _closure(successors, start):
    seen = {start}
    agenda = [start]
    while agenda:
        for nxt in successors[agenda.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                agenda.append(nxt)
    return seen
