"""State elimination and the block-to-letter expression transform."""

import itertools

import pytest

from blockdet import (
    BlockAutomaton,
    BlockSymbol,
    chi,
    drop,
    eliminable,
    eliminate,
    eliminate_set,
    enumerate_words,
    equivalent,
    glushkov,
    is_block_complete,
    is_k_block_deterministic_expression,
    is_k_lookahead_deterministic_expression,
    mark,
    parse,
    phi,
    phi_inverse,
    standardize,
    to_text,
    width,
)
from blockdet.syntax import Position, language
from blockdet.transform import ExpandedSymbol
from blockdet.witnesses import block_ak, block_bk, counterexample_fig7

from conftest import standardized_counterexample, rewired_counterexample


class TestEliminable:
    def test_counterexample_nothing_eliminable(self):
        a = counterexample_fig7()
        assert not any(eliminable(a, q) for q in a.states)

    def test_standardized_counterexample_old_initial(self):
        assert eliminable(standardized_counterexample(), "i")

    def test_self_loop_blocks_elimination(self):
        a = BlockAutomaton.make(
            states={"i", "q", "f"},
            initials={"i"},
            finals={"f"},
            transitions=[("i", "a", "q"), ("q", "a", "q"), ("q", "b", "f")],
        )
        assert not eliminable(a, "q")

    def test_unknown_state(self):
        with pytest.raises(ValueError):
            eliminable(counterexample_fig7(), "zz")


class TestEliminate:
    def test_counterexample_rewire(self):
        assert eliminate(standardized_counterexample(), "i") == rewired_counterexample()

    def test_bypass_with_back_edge(self):
        # Eliminating q with s1 -w-> q creates the composed self-loop on s1.
        a = BlockAutomaton.make(
            states={"r1", "r2", "q", "s1", "s2"},
            initials={"r1", "r2"},
            finals={"s1", "s2"},
            transitions=[
                ("r1", "u", "q"),
                ("r2", "v", "q"),
                ("q", "x", "s1"),
                ("q", "y", "s2"),
                ("s1", "w", "q"),
            ],
        )
        out = eliminate(a, "q")
        got = {(t.source, t.label.letters, t.target) for t in out.transitions}
        assert got == {
            ("r1", "ux", "s1"),
            ("r1", "uy", "s2"),
            ("r2", "vx", "s1"),
            ("r2", "vy", "s2"),
            ("s1", "wx", "s1"),
            ("s1", "wy", "s2"),
        }

    def test_chain(self):
        a = BlockAutomaton.make(
            states={"p", "q", "s"},
            initials={"p"},
            finals={"s"},
            transitions=[("p", "a", "q"), ("q", "b", "s")],
        )
        out = eliminate(a, "q")
        assert {(t.source, t.label.letters, t.target) for t in out.transitions} == {
            ("p", "ab", "s")
        }

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            eliminate(counterexample_fig7(), "i")

    def test_language_preserved(self):
        a = standardized_counterexample()
        out = eliminate(a, "i")
        assert enumerate_words(out, 6) == enumerate_words(a, 6)


class TestEliminateSet:
    def test_block_ak_to_bk(self):
        assert eliminate_set(block_ak(2), {"α1", "β1"}) == block_bk(2)

    def test_hanwood_standardized_elimination(self):
        # Standardizing the chain DFA frees its old initial for elimination,
        # which re-blocks the a-cycle into [aa]/[ab] labels.
        from blockdet.witnesses import hanwood_mk

        m2 = standardize(hanwood_mk(2))
        out = eliminate_set(m2, {"q2"})
        labels = {t.label.letters for t in out.transitions}
        assert "aa" in labels and "ab" in labels
        assert equivalent(out, hanwood_mk(2))

    def test_empty_set_identity(self):
        a = block_ak(3)
        assert eliminate_set(a, set()) == a

    def test_order_independence(self):
        a = block_ak(3)
        removable = sorted({"α1", "α2", "β1", "β2"})
        expected = eliminate_set(a, removable)
        for order in itertools.permutations(removable):
            step = a
            for q in order:
                step = eliminate(step, q)
            assert step == expected

    def test_names_why_a_state_cannot_go(self):
        # As `eliminate` does; the states are checked in sorted order.
        a = counterexample_fig7()
        for states, first in (({"i"}, "i"), ({"i", "2"}, "2")):
            with pytest.raises(ValueError) as info:
                eliminate_set(a, states)
            assert str(info.value) == f"state {first!r} is initial, final or has a self-loop"

    def test_cycle_rejected(self):
        a = BlockAutomaton.make(
            states={"i", "p", "q", "f"},
            initials={"i"},
            finals={"f"},
            transitions=[
                ("i", "a", "p"),
                ("p", "a", "q"),
                ("q", "a", "p"),
                ("q", "b", "f"),
            ],
        )
        with pytest.raises(ValueError):
            eliminate_set(a, {"p", "q"})

    def test_non_eliminable_member_rejected(self):
        with pytest.raises(ValueError):
            eliminate_set(counterexample_fig7(), {"i"})


class TestPhi:
    def test_three_letter_block(self):
        word = phi(Position(5, BlockSymbol("aba")))
        assert word == (
            ExpandedSymbol("a", 5, 1),
            ExpandedSymbol("b", 5, 2),
            ExpandedSymbol("a", 5, 3),
        )

    def test_width_one(self):
        assert phi(Position(4, BlockSymbol("b"))) == (ExpandedSymbol("b", 4, 1),)

    def test_inverse_round_trip(self, block_corpus):
        for expr in block_corpus:
            for position in mark(expr).positions:
                assert phi_inverse(phi(position)) == position

    def test_inverse_rejects_glued_blocks(self):
        glued = phi(Position(1, BlockSymbol("ab"))) + phi(Position(2, BlockSymbol("a")))
        with pytest.raises(ValueError):
            phi_inverse(glued)

    def test_inverse_rejects_mid_block_start(self):
        with pytest.raises(ValueError):
            phi_inverse(phi(Position(1, BlockSymbol("aba")))[1:])

    def test_inverse_rejects_empty(self):
        with pytest.raises(ValueError):
            phi_inverse(())


class TestChi:
    def test_mixed_width_blocks(self):
        marked = mark(parse("([aba]+[abb])*[aa]"))
        out = chi(marked)
        assert to_text(out.ast) == "(a@1.1b@1.2a@1.3+a@2.1b@2.2b@2.3)*(a@3.1a@3.2)"
        assert to_text(drop(out)) == "(aba+abb)*(aa)"

    def test_width1_expression_unchanged_after_drop(self):
        expr = parse("b*a(b*a)*(a+b)")
        assert drop(chi(mark(expr))) == expr

    def test_language_preserved(self, block_corpus):
        for expr in block_corpus:
            transformed = drop(chi(mark(expr)))
            assert equivalent(glushkov(expr).automaton, glushkov(transformed).automaton)

    def test_needs_marked_input(self):
        from blockdet.syntax import Literal, MarkedExpression

        with pytest.raises(ValueError, match="^chi needs a marked block expression$"):
            chi(MarkedExpression(Literal(BlockSymbol("a")), (BlockSymbol("a"),)))
        with pytest.raises(ValueError, match="^the tree has 1 literals but 0 positions$"):
            chi(MarkedExpression(Literal(BlockSymbol("a")), ()))


class TestBlockComplete:
    def test_tiled_word(self):
        marked = mark(parse("([aba]+[abb])*[aa]"))
        word = phi(marked.positions[0]) + phi(marked.positions[2])
        assert is_block_complete(word, marked)

    def test_truncated_block(self):
        marked = mark(parse("([aba]+[abb])*[aa]"))
        assert not is_block_complete(phi(marked.positions[0])[:2], marked)

    def test_empty_word(self):
        marked = mark(parse("([aba]+[abb])*[aa]"))
        assert is_block_complete((), marked)

    def test_mid_block_start(self):
        marked = mark(parse("([aba]+[abb])*[aa]"))
        assert not is_block_complete(phi(marked.positions[0])[1:], marked)
        aba, abb = phi(marked.positions[0]), phi(marked.positions[1])
        assert not is_block_complete(aba[:1] + abb[1:], marked)  # offsets cross blocks
        assert not is_block_complete(aba[:2] + aba, marked)  # a block restarts mid-way

    def test_foreign_symbol_rejected(self):
        marked = mark(parse("([aba]+[abb])*[aa]"))
        with pytest.raises(ValueError):
            is_block_complete((ExpandedSymbol("a", 9, 1),), marked)

    def test_all_language_words_block_complete(self, block_corpus):
        for expr in block_corpus:
            marked = mark(expr)
            transformed = chi(marked)
            for word in language(transformed.ast, 6):
                assert is_block_complete(word, marked)


class TestTransformTheorem:
    def test_block_det_transfers_to_lookahead(self, block_corpus):
        hits = 0
        for expr in block_corpus:
            transformed = drop(chi(mark(expr)))
            for k in range(1, 5):
                if is_k_block_deterministic_expression(expr, k).verdict:
                    hits += 1
                    assert is_k_lookahead_deterministic_expression(transformed, k).verdict
        assert hits > 0

    def test_phi_bijection_between_marked_languages(self, block_corpus):
        # Extend phi by morphism and match the two bounded marked languages.
        for expr in block_corpus:
            marked = mark(expr)
            transformed = chi(marked)
            block_words = language(marked.ast, 4)
            images = {
                tuple(s for p in word for s in phi(p)) for word in block_words
            }
            max_letters = 4 * max((p.block.width for p in marked.positions), default=1)
            letter_words = {
                w
                for w in language(transformed.ast, max_letters)
                if _block_count(w) <= 4
            }
            assert images == letter_words


def _block_count(word):
    return sum(1 for sym in word if sym.offset == 1)
