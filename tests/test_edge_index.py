"""The per-state edge index that `BlockAutomaton` builds once and keeps:
no public function may change it, and no cache may keep it alive."""

import gc
import random
import weakref
from contextlib import suppress

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

from conftest import BLOCK_EXPRESSION_TEXTS, random_expression

# Names the package itself gives: subsets, chain states, primed initials.
STATE_NAMES = ["q0", "q1", "q2", "{q0,q1}", "{q1,q2}", "@0", "@1", "i'"]


def _fresh_out(a):
    out = {q: [] for q in a.states}
    for t in a.transitions:
        out[t.source].append(t)
    return out


def _fresh_in(a):
    into = {q: [] for q in a.states}
    for t in a.transitions:
        into[t.target].append(t)
    return into


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
        checked = 0
        for a in _corpus():
            # Built before the calls, so that they all read this one.
            assert a.out_edges == _fresh_out(a) and a.in_edges == _fresh_in(a)
            for b in [a, *_exercise(a, cuts)]:
                assert b.out_edges == _fresh_out(b)
                assert b.in_edges == _fresh_in(b)
                checked += 1
        # Each S-cut drops edges from the final states' rows, so enough of
        # them catch a cut made in place.
        assert len(cuts) > 20 and checked > 1000

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
            transitions=[("p", "a", "q"), ("q", "b", "p"), ("r", "a", "q")],
        )
        derived = minimize(determinize(trim(a)))
        _exercise(a, [])
        _exercise(derived, [])
        refs = [weakref.ref(a), weakref.ref(derived)]
        del a, derived
        gc.collect()
        assert [r() for r in refs] == [None, None]
