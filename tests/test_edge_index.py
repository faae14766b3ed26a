"""The per-state edge index and the lookahead depths that `BlockAutomaton`
builds once and keeps: no public function may change them, no cache may
keep them alive, and their order does not follow the hash seed."""

import gc
import os
import random
import subprocess
import sys
import weakref
from contextlib import suppress
from pathlib import Path

import blockdet
from blockdet import (
    BlockAutomaton,
    accepts,
    bkw_test,
    certify_k_block_language,
    consistent_symbols,
    determinize,
    distinguishing_word,
    eliminable,
    eliminate,
    eliminate_set,
    enumerate_words,
    equivalent,
    expand_blocks,
    glushkov,
    is_deterministic,
    is_k_block_deterministic,
    is_k_lookahead_deterministic,
    isomorphic,
    min_lookahead,
    minimal_dfa,
    minimize,
    orbit_automaton,
    orbit_decomposition,
    orbit_property,
    parse,
    s_cut,
    standardize,
    trim,
)
from blockdet.automaton import _clashing_pairs

from conftest import BLOCK_EXPRESSION_TEXTS, random_expression, reference_common_depths

# Names the package itself gives: subsets, chain states, primed initials.
STATE_NAMES = ["q0", "q1", "q2", "{q0,q1}", "{q1,q2}", "@0", "@1", "i'"]


def _fresh_out(a):
    """The out_edges index as it must read: states and rows sorted."""
    return [(q, sorted(t for t in a.transitions if t.source == q)) for q in sorted(a.states)]


def _fresh_in(a):
    """The in_edges index as it must read: states and rows sorted."""
    return [(q, sorted(t for t in a.transitions if t.target == q)) for q in sorted(a.states)]


def _depth_map(a):
    """The lookahead table as a map from clashing pair to common depth."""
    return dict(zip(_clashing_pairs(a.out_edges), reference_common_depths(a)))


def _random_automaton(rng):
    """Several initials and an unreachable part: a random core plus an
    island of states that no initial reaches."""
    names = rng.sample(STATE_NAMES, rng.randint(2, len(STATE_NAMES)))
    core, island = names[: len(names) // 2 + 1], names[len(names) // 2 + 1 :]
    labels = ["a", "b", "ab", "ba"] if rng.random() < 0.5 else ["a", "b"]

    def edges(states, count):
        return [(rng.choice(states), rng.choice(labels), rng.choice(states)) for _ in range(count)]

    transitions = edges(core, rng.randint(1, 3 * len(core)))
    if island:
        transitions += edges(island, rng.randint(0, 2 * len(island)))
    return BlockAutomaton.make(
        states=names,
        initials=rng.sample(core, rng.randint(1, min(3, len(core)))),
        finals=rng.sample(names, rng.randint(1, len(names))),
        transitions=transitions,
    )


def _corpus():
    rng = random.Random(1201)
    machines = [_random_automaton(rng) for _ in range(80)]
    exprs = [parse(text) for text in BLOCK_EXPRESSION_TEXTS]
    exprs += [random_expression(rng, 6, 2) for _ in range(40)]
    exprs += [parse("(a+b)*"), parse("(ab+ba)*b"), parse("c(c(a)*d)*d")]
    for expr in exprs:
        g = glushkov(expr).automaton
        machines += [g, minimal_dfa(g)]
    return machines


def _exercise(a, cuts):
    """Pass the automaton to every public function that takes one; return
    the automata they give back.  Precondition errors are expected."""
    results = []

    def call(f, *args):
        with suppress(ValueError):
            out = f(*args)
            if isinstance(out, BlockAutomaton):
                results.append(out)
            return out

    for f in (trim, standardize, expand_blocks, determinize, minimize, min_lookahead,
              is_deterministic, orbit_decomposition, orbit_property, bkw_test):
        call(f, a)
    call(isomorphic, a, a)
    call(equivalent, a, trim(a))
    call(distinguishing_word, a, expand_blocks(a))
    for word in ["", "a", "ab", "aba", "bab"]:
        call(accepts, a, word)
    call(enumerate_words, a, 3)
    for k in (1, 2, 3):
        call(is_k_block_deterministic, a, k)
        call(is_k_lookahead_deterministic, a, k)
        call(certify_k_block_language, a, k)
    symbols = call(consistent_symbols, a)
    if symbols:
        call(s_cut, a, symbols)
        cuts.append(a)
    for q in sorted(a.states):
        call(orbit_automaton, a, q)
        if call(eliminable, a, q):
            call(eliminate, a, q)
    call(eliminate_set, a, [q for q in sorted(a.states) if eliminable(a, q)])
    return results


class TestSharedEdgeIndex:
    def test_no_public_function_changes_the_index(self):
        cuts: list = []
        checked = tables = 0
        for a in _corpus():
            # Built before the calls, so that they all read this one.
            assert list(a.out_edges.items()) == _fresh_out(a)
            assert list(a.in_edges.items()) == _fresh_in(a)
            for b in [a, *_exercise(a, cuts)]:
                assert list(b.out_edges.items()) == _fresh_out(b)
                assert list(b.in_edges.items()) == _fresh_in(b)
                checked += 1
            # The lookahead functions refuse wider automata before reading
            # the group depths, and build them once.
            assert ("group_depths" in a.__dict__) == (a.width <= 1)
            if a.width <= 1:
                depths = a.group_depths
                assert a.group_depths is depths
                copy = BlockAutomaton.make(a.states, a.initials, a.finals, a.transitions)
                assert list(copy.group_depths) == list(depths)
                assert _depth_map(a) == _depth_map(copy)
                tables += bool(depths)
        # Each S-cut drops edges from the final states' rows, so enough of
        # them catch a cut made in place.
        assert len(cuts) > 20 and checked > 1000 and tables > 20

    def test_index_is_built_once(self):
        a = glushkov(parse("(a+[bc])*a")).automaton
        assert a.out_edges is a.out_edges
        assert a.in_edges is a.in_edges
        assert trim(a).out_edges is a.out_edges  # trim returns a trimmed input

    def test_index_dies_with_its_automaton(self):
        a = BlockAutomaton.make(
            states={"p", "q", "r"},
            initials={"p"},
            finals={"q"},
            transitions=[("p", "a", "q"), ("p", "a", "r"), ("q", "b", "p"), ("r", "a", "q")],
        )
        derived = minimize(determinize(trim(a)))
        # Its tagged walks run over their budget, so some clash groups keep
        # their pair depths.
        fell = glushkov(parse("(a+b)*a(a+b)(a+b)+(a+b)*b(a+b)(a+b)c")).automaton
        for b in (a, derived, fell):
            _exercise(b, [])
        kept = list(fell.group_depths.groups.fallen.values())
        assert kept
        refs = [weakref.ref(x) for x in (a, derived, a.group_depths, fell, fell.group_depths, *kept)]
        del a, derived, fell, b, kept
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)


# Prints the index, the lookahead depths and violations, the kept pair depths
# of fallen-back groups and the table of a seeded corpus: Glushkov automata
# of width-1 expressions and their minimal DFAs.  The first expression
# clashes at two states with different depths.
_ORDER_SCRIPT = """
import random
from blockdet import glushkov, is_k_lookahead_deterministic, minimal_dfa, parse
from conftest import random_expression, reference_common_depths

rng = random.Random(2020)
exprs = [parse("x(yz+yw)*(y+x)+x(y+z)")] + [random_expression(rng, 8, 1) for _ in range(60)]
for expr in exprs:
    for a in (glushkov(expr).automaton, minimal_dfa(expr)):
        print(list(a.out_edges.items()), list(a.in_edges.items()))
        print(list(a.group_depths), is_k_lookahead_deterministic(a, 1).violations)
        print(list(a.group_depths.groups.fallen.items()), reference_common_depths(a))
"""


class TestHashSeedIndependence:
    def test_index_order_does_not_follow_the_hash_seed(self):
        # Transitions are a frozenset, whose order follows the hash seed.
        paths = [Path(blockdet.__file__).resolve().parents[1], Path(__file__).resolve().parent]
        runs = []
        for hash_seed in (0, 1, 2):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [*map(str, paths), env.get("PYTHONPATH")]))
            runs.append(subprocess.Popen(
                [sys.executable, "-c", _ORDER_SCRIPT],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            ))
        outputs = []
        for done in runs:
            out, err = done.communicate(timeout=120)
            assert done.returncode == 0, err
            outputs.append(out)
        assert "[1, 0" in outputs[0] and "Transition(" in outputs[0]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
