"""Core automaton algebra: acceptance, trim, standardize, expansion,
determinization, minimization, isomorphism, equivalence, enumeration."""

import itertools
import random
import signal
from collections import Counter

import pytest

from blockdet import (
    BlockAutomaton,
    BlockSymbol,
    Transition,
    accepts,
    determinize,
    distinguishing_word,
    enumerate_words,
    equivalent,
    expand_blocks,
    from_json,
    glushkov,
    is_deterministic,
    isomorphic,
    minimize,
    parse,
    standardize,
    to_dot,
    to_json,
    trim,
)
from blockdet import automaton, witnesses
from blockdet import bkw as bkw_module
from blockdet.bkw import consistent_symbols, orbit_automaton, s_cut
from blockdet.syntax import base_language, mark
from blockdet.transform import eliminable, eliminate
from blockdet.witnesses import WitnessSpec, block_ak, block_bk, counterexample_fig7, hanwood_mk, unary_aj

from conftest import glushkov_union_tail, glushkov_two_lookahead, glushkov_two_block, min_dfa_two_block, nested_orbits, random_expression, standardized_counterexample


@pytest.fixture
def corpus_automata(block_corpus):
    machines = [glushkov(e).automaton for e in block_corpus]
    machines += [min_dfa_two_block(), hanwood_mk(3), block_ak(2), block_bk(2), unary_aj(2)]
    return machines


class TestAccepts:
    def test_block_path(self):
        assert accepts(glushkov_two_block(), "ba")

    def test_half_block_rejected(self):
        # No accepting path of label length <= 1 exists.
        assert not accepts(glushkov_two_block(), "a")

    def test_epsilon_iff_initial_final(self):
        assert accepts(block_ak(2), "")
        assert not accepts(min_dfa_two_block(), "")

    def test_blocks_consume_chunks(self):
        assert accepts(glushkov_two_block(), "aaab" + "b")
        assert not accepts(glushkov_two_block(), "aab")


class TestTrim:
    def test_unreachable_dropped(self):
        a = BlockAutomaton.make(
            states={"i", "u", "f"},
            initials={"i"},
            finals={"f"},
            transitions=[("i", "a", "f"), ("u", "a", "f")],
        )
        assert trim(a).states == frozenset({"i", "f"})

    def test_sink_dropped(self):
        a = BlockAutomaton.make(
            states={"i", "s", "f"},
            initials={"i"},
            finals={"f"},
            transitions=[("i", "a", "f"), ("i", "b", "s"), ("s", "b", "s")],
        )
        assert trim(a).states == frozenset({"i", "f"})

    def test_idempotent(self, corpus_automata):
        for a in corpus_automata:
            once = trim(a)
            assert trim(once) is once

    def test_unused_letters_dropped(self):
        # A declared label no transition uses is read and dropped.
        a = from_json({
            "states": ["i"], "initials": ["i"], "finals": ["i"], "alphabet": ["a", "b"],
            "transitions": [{"from": "i", "label": "a", "to": "i"}],
        })
        assert a.alphabet == frozenset({"a"})
        assert trim(a) is a


class TestStandardize:
    def test_counterexample_standardization(self):
        assert standardize(counterexample_fig7()) == standardized_counterexample()

    def test_already_standard_gives_isomorphic_copy(self):
        # The fresh initial takes over the old one's outgoing transitions and
        # the now-unreachable old initial disappears.
        a = glushkov_union_tail()
        out = standardize(a)
        assert out.initials == frozenset({"i'"})
        assert "i" not in out.states
        rename = {"i": "i'"}
        expected = {
            (rename.get(t.source, t.source), t.label.letters, t.target) for t in a.transitions
        }
        assert {(t.source, t.label.letters, t.target) for t in out.transitions} == expected

    def test_epsilon_acceptor_keeps_final_initial(self):
        a = BlockAutomaton.make(
            states={"p", "q"},
            initials={"p"},
            finals={"p"},
            transitions=[("p", "a", "q"), ("q", "a", "p")],
        )
        out = standardize(a)
        (start,) = out.initials
        assert start in out.finals

    def test_initial_has_no_incoming_and_language_kept(self, corpus_automata):
        for a in corpus_automata:
            out = standardize(a)
            (start,) = out.initials
            assert not any(t.target == start for t in out.transitions)
            assert enumerate_words(out, 6) == enumerate_words(a, 6)


class TestExpandBlocks:
    def test_chain_construction(self):
        a = BlockAutomaton.make(
            states={"1"}, initials={"1"}, finals={"1"}, transitions=[("1", "ba", "1")]
        )
        out = expand_blocks(a)
        assert out.width == 1
        assert len(out.states) == 2
        (fresh,) = out.states - {"1"}
        assert [(t.source, t.label.letters, t.target) for t in sorted(out.transitions)] == [
            ("1", "b", fresh),
            (fresh, "a", "1"),
        ]
        # "cba" and "ca" into 2 end in the chain that "ba" made for ("a", 2).
        a = BlockAutomaton.make(
            states={"1", "2", "3"},
            initials={"1"},
            finals={"2"},
            transitions=[("1", "ba", "2"), ("1", "cba", "2"), ("3", "ca", "2")],
        )
        out = expand_blocks(a)
        assert out.states == {"1", "2", "3", "@0", "@1"}
        assert {(t.source, t.label.letters, t.target) for t in out.transitions} == {
            ("1", "b", "@0"),
            ("@0", "a", "2"),
            ("1", "c", "@1"),
            ("@1", "b", "@0"),
            ("3", "c", "@0"),
        }

    def test_fresh_names_avoid_states(self):
        a = BlockAutomaton.make(
            states={"@0", "@1"}, initials={"@0"}, finals={"@1"}, transitions=[("@0", "abc", "@1")]
        )
        out = expand_blocks(a)
        assert [(t.source, t.label.letters, t.target) for t in sorted(out.transitions)] == [
            ("@0", "a", "@0'"),
            ("@0'", "b", "@1'"),
            ("@1'", "c", "@1"),
        ]

    def test_width1_unchanged(self):
        a = min_dfa_two_block()
        assert expand_blocks(a) is a

    def test_b2_expanded_accepts_abc(self):
        b2 = block_bk(2)
        assert accepts(b2, "abc")
        assert accepts(expand_blocks(b2), "abc")

    def test_language_preserved(self, corpus_automata):
        # `accepts` reads block labels directly, so it referees the expansion.
        for a in corpus_automata:
            flat = expand_blocks(a)
            letters = sorted({c for b in a.alphabet for c in b.letters})
            for n in range(6):
                for word in map("".join, itertools.product(letters, repeat=n)):
                    assert accepts(flat, word) == accepts(a, word), (a, word)

    def test_random_block_automata(self):
        # Widths 1-3 over two letters, so suffixes repeat and several labels
        # enter one target.
        rng = random.Random(2608)
        blocks = ["".join(p) for n in (1, 2, 3) for p in itertools.product("ab", repeat=n)]
        words = ["".join(p) for n in range(7) for p in itertools.product("ab", repeat=n)]
        shared = 0
        for _ in range(150):
            states = [f"q{i}" for i in range(rng.randint(1, 4))]
            transitions = {
                (rng.choice(states), rng.choice(blocks), rng.choice(states))
                for _ in range(rng.randint(0, 9))
            }
            a = BlockAutomaton.make(
                states=states,
                initials=rng.sample(states, rng.randint(1, len(states))),
                finals=rng.sample(states, rng.randint(0, len(states))),
                transitions=transitions,
            )
            flat = expand_blocks(a)
            assert flat.width <= 1
            for word in words:
                assert accepts(flat, word) == accepts(a, word), (a, word)
            keys = {
                (label[i:], target)
                for _, label, target in transitions
                for i in range(1, len(label))
            }
            assert len(flat.states) - len(a.states) == len(keys)
            chained = sum(len(label) - 1 for _, label, _ in transitions)
            shared += len(keys) < chained
        assert shared > 50

    def test_glushkov_tag_groups_are_linear(self):
        # A tag group has about n^2 transitions but gets one chain per position.
        rng = random.Random(77)
        words = ["".join(p) for n in range(6) for p in itertools.product("abcz", repeat=n)]
        for n in (1, 2, 5, 12, 30):
            tags = [
                "".join(rng.choice("abc") for _ in range(rng.randint(1, 3))) for _ in range(n)
            ]
            g = glushkov(parse("(" + "+".join(f"[{t}]" for t in tags) + ")*[zz]"))
            flat = expand_blocks(g.automaton)
            fresh = len(flat.states) - len(g.automaton.states)
            assert fresh == sum(p.block.width - 1 for p in g.position_of_state.values())
            for word in words:
                assert accepts(flat, word) == accepts(g.automaton, word), (tags, word)


class TestDeterminize:
    def test_subset_construction(self):
        nfa = BlockAutomaton.make(
            states={"i", "1", "2"},
            initials={"i"},
            finals={"2"},
            transitions=[("i", "a", "1"), ("i", "a", "2")],
        )
        dfa = determinize(nfa)
        assert is_deterministic(dfa)
        assert len(dfa.states) == 2
        assert accepts(dfa, "a") and not accepts(dfa, "aa")

    def test_deterministic_input_is_fixed_point(self):
        a = min_dfa_two_block()
        assert isomorphic(determinize(a), trim(a))

    def test_no_initials_gives_the_empty_automaton(self):
        a = BlockAutomaton.make(states={"p", "q"}, finals={"q"}, transitions=[("p", "a", "q")])
        assert determinize(a) == BlockAutomaton.make()

    def test_two_lookahead_language_preserved(self):
        g = glushkov(parse("b*a(b*a)*(a+b)")).automaton
        dfa = determinize(expand_blocks(g))
        assert enumerate_words(dfa, 5) == enumerate_words(glushkov_two_lookahead(), 5)

    def test_wide_blocks_rejected(self):
        with pytest.raises(ValueError):
            determinize(glushkov_two_block())

    def test_matches_per_letter_subset_construction(self):
        # Seeded random NFAs with up to 8 letters and up to three initial
        # states, against the textbook construction.
        rng = random.Random(1805)
        for _ in range(400):
            n = rng.randint(1, 7)
            # "{q0,q1}" as a state name makes subset names collide, so that
            # the order subsets are found in decides which one is primed.
            states = [f"q{i}" for i in range(n)] + ["{q0,q1}", "{q0,q2}"][: rng.randint(0, 2)]
            alphabet = rng.sample("abcdefgh", rng.randint(1, 8))
            used = alphabet[: rng.randint(1, len(alphabet))]
            nfa = BlockAutomaton.make(
                states=states,
                initials=rng.sample(states, rng.randint(1, min(3, len(states)))),
                finals=[q for q in states if rng.random() < 0.3],
                transitions=[
                    (rng.choice(states), rng.choice(used), rng.choice(states))
                    for _ in range(rng.randint(0, 3 * len(states)))
                ],
            )
            dfa = determinize(nfa)
            got = (dfa.states, dfa.transitions, dfa.initials, dfa.finals)
            assert got == _per_letter_subsets(nfa)

    def test_deterministic_input_matches_subset_construction(self):
        # Deterministic input skips the construction: every subset would be
        # a singleton named after its member.  Names such as "{q0,q1}" and
        # unused or unreachable parts must come out as the construction has them.
        rng = random.Random(1806)
        shrunk = 0
        for _ in range(400):
            states = [f"q{i}" for i in range(rng.randint(1, 7))] + ["{q0,q1}"][: rng.randint(0, 1)]
            alphabet = rng.sample("abcd", rng.randint(1, 4))
            moves = {(q, c): rng.choice(states) for q in states for c in alphabet if rng.random() < 0.5}
            a = BlockAutomaton.make(
                states=states,
                initials=[rng.choice(states)],
                finals=[q for q in states if rng.random() < 0.3],
                transitions=[(q, c, r) for (q, c), r in moves.items()],
            )
            assert is_deterministic(a)
            dfa = determinize(a)
            assert (dfa.states, dfa.transitions, dfa.initials, dfa.finals) == _per_letter_subsets(a)
            assert dfa.alphabet == {t.label for t in dfa.transitions}
            shrunk += dfa.states < a.states
        assert shrunk > 100


class TestMinimize:
    def test_already_minimal_fixed_point(self):
        a = min_dfa_two_block()
        assert minimize(a) == a

    def test_equivalent_states_merged(self):
        a = BlockAutomaton.make(
            states={"i", "p", "q"},
            initials={"i"},
            finals={"p", "q"},
            transitions=[("i", "a", "p"), ("i", "b", "q")],
        )
        out = minimize(a)
        assert len(out.states) == 2

    def test_unary_witness_size(self):
        g = glushkov(parse("(aaaaa)*(eps+aa)")).automaton
        out = minimize(determinize(expand_blocks(g)))
        assert len(out.states) == 5

    def test_colliding_group_name_is_primed_in_state_order(self):
        # x and y merge into a group named {x,y}, which a state already has:
        # the group with the least member keeps the bare name, whatever the
        # hash seed.
        a = BlockAutomaton.make(
            states=["s", "x", "y", "{x,y}"],
            initials=["s"],
            finals=["x", "y", "{x,y}"],
            transitions=[
                ("s", "a", "x"),
                ("s", "b", "y"),
                ("s", "c", "{x,y}"),
                ("x", "a", "x"),
                ("y", "a", "y"),
            ],
        )
        assert {str(t) for t in minimize(a).transitions} == {
            "s -a-> {x,y}",
            "s -b-> {x,y}",
            "s -c-> {x,y}'",
            "{x,y} -a-> {x,y}",
        }

    def test_nondeterministic_rejected(self):
        with pytest.raises(ValueError):
            minimize(glushkov_union_tail())

    def test_oracle_on_random_dfas(self):
        # Refereed without the refinement code: the result is a trimmed DFA
        # with the input's language, and no two of its states, each made the
        # start, accept the same language.
        rng = random.Random(2026)
        merged = pairs = 0
        for _ in range(300):
            states = [f"s{i}" for i in range(rng.randint(1, 8))]
            labels = rng.choice(["a", "ab", "abc"])  # letters, so words referee labels
            finals = {q for q in states if rng.random() < 0.4}
            moves = {(q, c): rng.choice(states) for q in states for c in labels if rng.random() < 0.6}
            if rng.random() < 0.5:  # a twin of one state takes some of its in-edges
                q = rng.choice(states)
                twin = q + "'"
                moves.update({(twin, c): r for (p, c), r in list(moves.items()) if p == q})
                moves.update({k: twin for k, r in moves.items() if r == q and rng.random() < 0.5})
                finals |= {twin} if q in finals else set()
                states.append(twin)
            a = BlockAutomaton.make(
                states=states,
                initials=[states[0]],
                finals=finals,
                transitions=[(p, c, r) for (p, c), r in moves.items()],
            )
            m = minimize(a)
            assert not m.states or is_deterministic(m)
            assert trim(m) == m
            assert distinguishing_word(a, m) is None
            for p, q in itertools.combinations(sorted(m.states), 2):
                rooted = [
                    BlockAutomaton(m.states, frozenset({x}), m.finals, m.transitions) for x in (p, q)
                ]
                assert distinguishing_word(*rooted) is not None
                pairs += 1
            merged += len(m.states) < len(trim(a).states)
        assert merged > 20 and pairs > 500

    def test_no_equivalent_state_pairs_left(self, corpus_automata):
        for a in corpus_automata:
            m = minimize(determinize(expand_blocks(a)))
            if len(m.states) > 12:
                continue
            langs = {q: _right_language(m, q, 6) for q in m.states}
            values = list(langs.values())
            assert len({frozenset(v) for v in values}) == len(values)


def _moore_quotient(rows: list) -> dict:
    """The reference for `automaton._quotient`: Moore refinement, which
    recomputes every state's signature (its block, and the block each label
    leads to) each round until the block count stops growing, about n rounds
    on an n-state cycle.  Same rows, same class names."""
    block_of = {q: final for q, final, _ in rows}
    count = len(set(block_of.values()))
    while True:
        ids: dict = {}
        refined = {}
        for q, _, edges in rows:
            signature = (block_of[q], frozenset([(t.label, block_of[t.target]) for t in edges]))
            refined[q] = ids.setdefault(signature, len(ids))
        if len(ids) == count:
            break
        block_of, count = refined, len(ids)
    groups: dict = {}
    for q, _, _ in rows:
        groups.setdefault(refined[q], []).append(q)
    frozen = [frozenset(g) for g in groups.values()]
    names = automaton._name_groups(frozen)
    return {q: names[group] for group in frozen for q in group}


def _rows(a: BlockAutomaton) -> list:
    """`minimize`'s rows for `_quotient`."""
    return [(q, q in a.finals, a.out_edges[q]) for q in sorted(a.states)]


class TestQuotient:
    """Hopcroft refinement against the Moore reference, names included."""

    def test_matches_moore(self, monkeypatch):
        rng = random.Random(1971)
        cases = [[]]
        # Random partial DFAs, untrimmed: missing transitions, several finals,
        # and twins that only refinement can merge.
        for run in range(400):
            states = [f"s{i}" for i in range(rng.randint(1, 40))]
            labels = "abc"[: 1 + run % 3]
            finals = {q for q in states if rng.random() < 0.3}
            moves = {(q, c): rng.choice(states) for q in states for c in labels if rng.random() < 0.7}
            for q in rng.sample(states, len(states) // 4):  # twins take some in-edges
                twin = q + "'"
                moves.update({(twin, c): r for (p, c), r in list(moves.items()) if p == q})
                moves.update({k: twin for k, r in moves.items() if r == q and rng.random() < 0.5})
                finals |= {twin} if q in finals else set()
                states.append(twin)
            edges: dict = {q: [] for q in states}
            for (p, c), r in moves.items():
                edges[p].append(Transition(p, BlockSymbol(c), r))
            cases.append([(q, q in finals, edges[q]) for q in sorted(states)])
        # The paper's cycles, and the exp ladder's DFAs, which Moore needs
        # n + 1 rounds for.
        cases += [_rows(unary_aj(j)) for j in range(1, 13)]
        cases += [_rows(hanwood_mk(k)) for k in range(2, 13)]
        for n in range(1, 7):
            g = glushkov(parse("(a+b)*a" + "(a+b)" * n)).automaton
            cases.append(_rows(determinize(g)))
        # BKW orbit rows, with the out-gates as finals.
        real = bkw_module._quotient

        def recording(rows):
            cases.append(rows)
            return real(rows)

        monkeypatch.setattr(bkw_module, "_quotient", recording)
        before = len(cases)
        expressions = [random_expression(rng, 10, 2) for _ in range(300)]
        expressions += [parse(nested_orbits(d)) for d in range(1, 7)]
        expressions.append(parse("(" + "+".join(f"[{x}{y}]" for x in "abc" for y in "abc") + ")*[zz]"))
        for e in expressions:
            d = determinize(expand_blocks(glushkov(e).automaton))
            bkw_module.bkw_test(d)  # unminimized, so its orbits can merge states
            bkw_module.bkw_test(minimize(d))
        merged = []
        for rows in cases:
            expected = _moore_quotient(rows)
            assert automaton._quotient(rows) == expected
            merged.append(len(set(expected.values())) < len(rows))
        assert sum(merged) > 100
        assert len(cases) - before > 200 and sum(merged[before:]) > 10

    def test_long_cycle_is_not_quadratic(self):
        # unary_Aj(4000) is an 8,001-state cycle with finals at offsets 0
        # and 4000.  Moore refinement needs 4,000 rounds over all of it,
        # about a minute; Hopcroft's a fraction of a second.  The timer
        # turns a quadratic regression into a failure, not a hang.
        a = unary_aj(4000)

        def expire(signum, frame):
            raise TimeoutError("minimize(unary_aj(4000)) took over 10 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            m = minimize(a)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert isomorphic(m, a)


class TestIsomorphic:
    def test_relabelled_copy(self):
        a = min_dfa_two_block()
        rename = {"i": "s0", "1": "s1", "2": "s2", "3": "s3", "4": "s4"}
        b = BlockAutomaton.make(
            states=set(rename.values()),
            initials={"s0"},
            finals={"s4"},
            transitions=[(rename[t.source], t.label.letters, rename[t.target]) for t in a.transitions],
        )
        assert isomorphic(a, b)

    def test_different_cycle_lengths(self):
        assert not isomorphic(unary_aj(2), unary_aj(3))

    def test_empty_automata(self):
        # The second trims to no states.
        assert isomorphic(BlockAutomaton.make(), BlockAutomaton.make(states={"p"}, initials={"p"}))
        assert not isomorphic(BlockAutomaton.make(), unary_aj(1))

    def test_different_shapes(self):
        assert not isomorphic(min_dfa_two_block(), minimize(determinize(glushkov_union_tail())))

    def test_nondeterministic_rejected(self):
        with pytest.raises(ValueError):
            isomorphic(glushkov_union_tail(), glushkov_union_tail())


class TestEquivalent:
    def test_hanwood_pair(self):
        assert equivalent(hanwood_mk(2), glushkov(parse("(a([aa])*([ab]a+bb)+ba)b*")).automaton)

    def test_block_pair(self):
        assert equivalent(block_ak(2), block_bk(2))

    def test_final_toggle_breaks_it(self):
        a = min_dfa_two_block()
        b = BlockAutomaton.make(
            states=a.states,
            initials=a.initials,
            finals={"3"},
            transitions=a.transitions,
        )
        assert not equivalent(a, b)

    def test_is_equivalence_relation(self):
        machines = [
            min_dfa_two_block(),
            hanwood_mk(2),
            glushkov(parse("[aa]*([ab]b+ba)b*")).automaton,
            block_ak(2),
            block_bk(2),
        ]
        for a in machines:
            assert equivalent(a, a)
        for a in machines:
            for b in machines:
                assert equivalent(a, b) == equivalent(b, a)
        for a in machines:
            for b in machines:
                for c in machines:
                    if equivalent(a, b) and equivalent(b, c):
                        assert equivalent(a, c)

    def test_agrees_with_minimal_dfa_referee(self):
        rng = random.Random(6)
        outcomes = {True: 0, False: 0}
        lengths = set()
        for n in range(1000):
            a = _random_block_automaton(rng)
            kind = n % 5
            if kind == 0:
                b = _same_language_copy(rng, a)
            elif kind in (1, 2):
                b = _mutated(rng, _same_language_copy(rng, a))
            elif kind == 3:
                b = _random_block_automaton(rng)
            else:
                b = BlockAutomaton.make()
            if rng.random() < 0.5:
                a, b = b, a
            word = distinguishing_word(a, b)
            same = _referee_equivalent(a, b)
            assert equivalent(a, b) == same == (word is None)
            outcomes[same] += 1
            if same:
                assert enumerate_words(a, 4) == enumerate_words(b, 4)
                continue
            assert accepts(a, word) != accepts(b, word)
            lengths.add(len(word))
            # The first length at which the two languages differ.
            words = [enumerate_words(x, len(word)) for x in (a, b)]
            shorter = [[w for w in ws if len(w) < len(word)] for ws in words]
            assert shorter[0] == shorter[1] and words[0] != words[1]
        assert min(outcomes.values()) > 250
        assert {0, 1, 2, 3} <= lengths

    def test_no_determinize_minimize_or_canonical(self, monkeypatch):
        g = glushkov(parse("(x+y)*x" + "(x+y)" * 10)).automaton
        m = minimize(determinize(g))
        calls = []
        for name in ("_quotient", "determinize", "_canonical"):
            real = getattr(automaton, name)

            def counting(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(automaton, name, counting)
        assert equivalent(g, m)
        assert calls == []
        per_claim = []
        real_equivalent = witnesses.equivalent

        def equivalent_counted(a, b):
            before = len(calls)
            verdict = real_equivalent(a, b)
            per_claim.append(len(calls) - before)
            return verdict

        monkeypatch.setattr(witnesses, "equivalent", equivalent_counted)
        assert witnesses.verify(WitnessSpec("hanwood_Mk", 6)).passed
        assert per_claim == [0, 0]
        assert set(calls) == {"_quotient", "_canonical"}  # the minimality claim


class TestEnumerate:
    def test_block_ak_words(self):
        assert enumerate_words(block_ak(2), 3) == ["", "a", "aa", "bb", "aaa", "abb", "abc"]

    def test_min_dfa_words(self):
        assert enumerate_words(min_dfa_two_block(), 2) == ["ba"]

    def test_maxlen_zero(self):
        assert enumerate_words(block_ak(2), 0) == [""]
        assert enumerate_words(min_dfa_two_block(), 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            enumerate_words(min_dfa_two_block(), -1)

    def test_agrees_with_expression_semantics(self, block_corpus):
        for expr in block_corpus:
            a = glushkov(expr).automaton
            assert set(enumerate_words(a, 5)) == base_language(expr, 5)

    def test_letter_budget(self):
        # a* lists one word per length: up to 1,413 letters they hold
        # 999,091 letters, and the level of 1,414 letters passes 1,000,000.
        a = glushkov(parse("a*")).automaton
        assert len(enumerate_words(a, 1413)) == 1414
        for maxlen in (1414, 10**20):
            with pytest.raises(ValueError, match="hold over 1,000,000 letters"):
                enumerate_words(a, maxlen)
        with pytest.raises(ValueError, match="hold over 1,000,000 letters"):
            enumerate_words(glushkov(parse("(a+b)*")).automaton, 40)


class TestPipelineAgreement:
    def test_accepts_stable_across_pipeline(self, corpus_automata):
        for a in corpus_automata:
            expanded = expand_blocks(a)
            det = determinize(expanded)
            mini = minimize(det)
            words = enumerate_words(a, 6)
            for stage in (expanded, det, mini):
                assert enumerate_words(stage, 6) == words


class TestValidation:
    def test_transition_endpoints_must_be_states(self):
        with pytest.raises(ValueError):
            BlockAutomaton.make(states={"p"}, transitions=[("p", "a", "q")])

    def test_initials_must_be_states(self):
        with pytest.raises(ValueError):
            BlockAutomaton.make(states={"p"}, initials={"q"})
        with pytest.raises(ValueError, match="^final states must be states$"):
            BlockAutomaton.make(states={"p"}, finals={"q"})

    def test_non_strings_rejected(self):
        # Each once failed late with another exception, or was read as an
        # answer: a string taken for its letters, a number for a name.
        with pytest.raises(ValueError, match="^a block is a string of letters: 7$"):
            BlockAutomaton.make(states={"p", "q"}, transitions=[("p", 7, "q")])
        for field in ("states", "initials", "finals", "transitions"):
            with pytest.raises(ValueError, match="must not be strings$"):
                BlockAutomaton.make(**{field: "pq"})
        # A three-letter string unpacks as (source, label, target).
        with pytest.raises(ValueError, match="^a transition is a \\(source, label, target\\) triple, not a string: 'paq'$"):
            BlockAutomaton.make(states=["p", "q"], transitions=["paq"])
        with pytest.raises(ValueError, match="^state names must be strings$"):
            BlockAutomaton.make(states=[1, 2], initials=[1], transitions=[(1, "a", 2)])

    def test_alphabet_defaults_to_used_labels(self):
        a = BlockAutomaton.make(states={"p"}, transitions=[("p", "ab", "p")])
        assert {b.letters for b in a.alphabet} == {"ab"}

    def test_alphabet_is_derived(self):
        # Not a field: built on first read and kept, like the edge index.
        a = BlockAutomaton.make(states={"p"}, transitions=[("p", "ab", "p")])
        assert BlockAutomaton._fields == ("states", "initials", "finals", "transitions")
        assert "alphabet" not in a.__dict__
        assert a.alphabet is a.alphabet and "alphabet" in a.__dict__
        with pytest.raises(TypeError):
            BlockAutomaton.make(states={"p"}, alphabet=["a"])
        with pytest.raises(TypeError):
            BlockAutomaton(frozenset(), frozenset(), frozenset(), frozenset(), frozenset())


class TestTrustedConstructor:
    """Internal producers skip `make`'s coercion and checks: each output
    must equal its rebuild through `make`, with the value types `make`
    gives."""

    def test_outputs_equal_their_validated_rebuild(self):
        rng = random.Random(1107)
        produced = Counter()

        def check(name, out):
            assert type(out.states) is frozenset and type(out.transitions) is frozenset
            assert all(type(t) is Transition and type(t.label) is BlockSymbol for t in out.transitions)
            rebuilt = BlockAutomaton.make(
                states=out.states,
                initials=out.initials,
                finals=out.finals,
                transitions=out.transitions,
            )
            assert rebuilt == out and rebuilt.alphabet == out.alphabet
            produced[name] += 1

        for _ in range(150):
            expr = random_expression(rng, 7, 3)
            marked = mark(expr)
            g = glushkov(marked).automaton
            check("glushkov", g)
            assert g.alphabet == {p.block for p in marked.positions}
            flat = expand_blocks(g)
            check("expand_blocks", flat)
            det = determinize(flat)
            check("determinize", det)
            m = minimize(det)
            check("minimize", m)
            if m.states:
                check("s_cut", s_cut(m, consistent_symbols(m)))
                for q in sorted(m.states):
                    check("orbit_automaton", orbit_automaton(m, q))
            a = _random_block_automaton(rng)
            for name, op in (("trim", trim), ("standardize", standardize)):
                check(name, op(a))
            if a.width == 1:
                check("determinize", determinize(a))
            for q in sorted(a.states):
                if eliminable(a, q):
                    check("eliminate", eliminate(a, q))
        assert min(produced.values()) > 50 and len(produced) == 9


class TestValueTypes:
    """Labels are `str` and transitions tuples, so that hashing, equality and
    ordering run in C; what they print and how they sort stays."""

    def test_block_symbol_validation_messages(self):
        with pytest.raises(ValueError, match="^a block needs at least one letter$"):
            BlockSymbol("")
        with pytest.raises(ValueError, match="^block letters must be alphanumeric: 'a-b'$"):
            BlockSymbol("a-b")

    def test_block_symbol_text(self):
        one, two = BlockSymbol("a"), BlockSymbol("ab")
        assert type(two.letters) is str and two.letters == "ab"
        assert (one.width, two.width) == (1, 2)
        assert (one.pretty(), two.pretty()) == ("a", "[ab]")
        assert (str(one), str(two), f"{two}") == ("a", "[ab]", "[ab]")
        assert two == "ab" and hash(two) == hash("ab")

    def test_transition_order_and_text(self):
        rng = random.Random(77)
        labels = [BlockSymbol(b) for b in ("a", "ab", "b", "ba")]
        ts = [
            Transition(rng.choice("pqr"), rng.choice(labels), rng.choice("pqr"))
            for _ in range(200)
        ]
        assert sorted(ts) == sorted(ts, key=lambda t: (t.source, t.label.letters, t.target))
        assert str(Transition("p", BlockSymbol("ab"), "q")) == "p -ab-> q"
        assert Transition("p", BlockSymbol("ab"), "q") == ("p", "ab", "q")


class TestSerialization:
    def test_json_round_trip(self, corpus_automata):
        for a in corpus_automata:
            back = from_json(to_json(a))
            assert back == a
            assert all(type(b) is BlockSymbol for b in back.alphabet)
            assert all(type(t) is Transition for t in back.transitions)

    def test_json_is_sorted_and_plain(self):
        data = to_json(glushkov_two_block())
        assert data["states"] == sorted(data["states"])
        assert {"from", "label", "to"} == set(data["transitions"][0])
        assert "aa" in data["alphabet"]

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            from_json({"states": []})
        good = {"states": ["p", "q"], "initials": ["p"], "finals": ["q"],
                "transitions": [{"from": "p", "label": "a", "to": "q"}]}
        from_json(good)
        # Each is malformed; most were once read as an answer: a string split
        # into letters, an object's keys, null or a number named by its text.
        for field, value in [
            ("states", "pq"),
            ("states", {"p": 1, "q": 2}),
            ("states", ["p", "q", None]),
            ("initials", "p"),
            ("finals", ["q", 1]),
            ("transitions", {}),
            ("transitions", [{"from": "p", "label": 7, "to": "q"}]),
            ("transitions", [{"from": "p", "label": "a", "to": None}]),
            ("transitions", [["p", "a", "q"]]),
            ("alphabet", "ab"),
            ("alphabet", ["a", 7]),
        ]:
            with pytest.raises(ValueError, match="^malformed automaton JSON: "):
                from_json({**good, field: value})
        # A declared alphabet is read after the required fields, so that a
        # document that is no object fails as malformed.
        for data in ([], ["states"], "states", 7, None):
            with pytest.raises(ValueError, match="^malformed automaton JSON: "):
                from_json(data)
        # Declared labels must be blocks, used or not.
        for value, message in (([""], "a block needs"), (["a-b"], "block letters must")):
            with pytest.raises(ValueError, match=f"^{message}"):
                from_json({**good, "alphabet": value})

    def test_dot_output(self):
        dot = to_dot(min_dfa_two_block())
        assert dot.startswith("digraph")
        assert '"4" [shape=doublecircle];' in dot
        assert '"i" -> "1" [label="a"];' in dot
        assert "__start0" in dot

    def test_dot_escapes_names_and_keeps_start_nodes_apart(self):
        a = BlockAutomaton.make(
            states={'a"b', "x\\y", "__start0"},
            initials={"__start0", 'a"b'},
            finals={"x\\y"},
            transitions=[('a"b', "a", "x\\y"), ("__start0", "b", 'a"b')],
        )
        lines = to_dot(a).splitlines()
        assert '  "a\\"b" [shape=circle];' in lines
        assert '  "x\\\\y" [shape=doublecircle];' in lines
        assert '  "a\\"b" -> "x\\\\y" [label="a"];' in lines
        # the state __start0 is drawn, and the invisible start nodes avoid its name
        assert '  "__start0" [shape=circle];' in lines
        assert '  "__start0\'" [shape=point, style=invis];' in lines
        assert '  "__start0\'" -> "__start0";' in lines
        assert '  "__start1" -> "a\\"b";' in lines
        assert '  "__start0" [shape=point, style=invis];' not in lines


def _per_letter_subsets(a):
    """States, transitions, initials and finals of the trimmed subset
    automaton, one scan of every transition per subset and letter."""
    start = frozenset(a.initials)
    subsets, moves = [start], []
    for subset in subsets:  # grows while it is read: breadth-first order
        for letter in sorted(a.alphabet):
            targets = frozenset(
                t.target for t in a.transitions if t.source in subset and t.label == letter
            )
            if targets:
                moves.append((subset, letter, targets))
                if targets not in subsets:
                    subsets.append(targets)
    names, taken = {}, set()
    for s in subsets:
        members = sorted(s)
        name = members[0] if len(members) == 1 else "{" + ",".join(members) + "}"
        while name in taken:
            name += "'"
        taken.add(name)
        names[s] = name
    alive = {s for s in subsets if s & a.finals}
    grew = True
    while grew:
        grew = False
        for s, _, t in moves:
            if t in alive and s not in alive:
                alive.add(s)
                grew = True
    return (
        frozenset(names[s] for s in alive),
        frozenset(
            Transition(names[s], letter, names[t])
            for s, letter, t in moves
            if s in alive and t in alive
        ),
        frozenset([names[start]] if start in alive else []),
        frozenset(names[s] for s in alive if s & a.finals),
    )


def _right_language(a, state, maxlen):
    probe = BlockAutomaton.make(
        states=a.states, initials={state}, finals=a.finals, transitions=a.transitions
    )
    return enumerate_words(probe, maxlen)


def _random_block_automaton(rng):
    """Up to 5 states over up to 3 letters, labels of width 1-2, 0-3
    initials, and sometimes a declared letter no transition uses, which
    only JSON input can carry."""
    states = [f"q{i}" for i in range(rng.randint(1, 5))]
    letters = "abc"[: rng.randint(1, 3)]
    labels = list(letters)
    if rng.random() < 0.5:
        labels += ["".join(p) for p in itertools.product(letters, repeat=2)]
    transitions = [
        (rng.choice(states), rng.choice(labels), rng.choice(states))
        for _ in range(rng.randint(0, 2 * len(states) + 1))
    ]
    data = to_json(BlockAutomaton.make(
        states=states,
        initials=rng.sample(states, rng.randint(0, min(3, len(states)))),
        finals=rng.sample(states, rng.randint(0, len(states))),
        transitions=transitions,
    ))
    if rng.random() < 0.3:
        data["alphabet"] = list(letters + "d")
    return from_json(data)


def _same_language_copy(rng, a):
    """Rename every state, then split one: the copy `s'` has the same
    out-transitions and finality, and takes over some of the in-transitions
    and the initial mark at random."""
    name = {q: f"p{q}" for q in a.states}
    if not a.states:
        return a
    split = name[rng.choice(sorted(a.states))]
    twin = split + "'"

    def retarget(q):
        return twin if q == split and rng.random() < 0.5 else q

    transitions = []
    for t in sorted(a.transitions):
        source, target = name[t.source], retarget(name[t.target])
        transitions.append((source, t.label, target))
        if source == split:
            transitions.append((twin, t.label, target))
    finals = {name[q] for q in a.finals}
    return BlockAutomaton.make(
        states=[*name.values(), twin],
        initials={retarget(name[q]) for q in sorted(a.initials)},
        finals=finals | ({twin} if split in finals else set()),
        transitions=transitions,
    )


def _mutated(rng, a):
    """Toggle one final state, or drop or add one transition."""
    states = sorted(a.states)
    transitions = sorted(a.transitions)
    finals = set(a.finals)
    change = rng.randrange(3)
    if change == 0 or not states:
        if states:
            finals ^= {rng.choice(states)}
    elif change == 1 and transitions:
        transitions.remove(rng.choice(transitions))
    else:
        transitions.append((rng.choice(states), rng.choice("ab"), rng.choice(states)))
    return BlockAutomaton.make(
        states=states, initials=a.initials, finals=finals, transitions=transitions
    )


def _referee_equivalent(a, b):
    """Equivalence through both minimal DFAs."""
    return isomorphic(
        minimize(determinize(expand_blocks(a))), minimize(determinize(expand_blocks(b)))
    )
