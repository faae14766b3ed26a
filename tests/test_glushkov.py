"""Glushkov construction, shape checks and alphabetic images."""

import pytest

from blockdet import (
    BlockAutomaton,
    BlockSymbol,
    alphabetic_image,
    check_glushkov_shape,
    enumerate_words,
    glushkov,
    glushkov_to_json,
    is_deterministic,
    mark,
    parse,
)
from blockdet.syntax import Empty, base_language

from conftest import glushkov_union_tail, glushkov_two_lookahead, glushkov_two_block, min_dfa_two_block


class TestConstruction:
    def test_union_tail(self):
        g = glushkov(parse("(a+b)*a+eps"))
        assert g.automaton == glushkov_union_tail()

    def test_two_lookahead(self):
        g = glushkov(parse("b*a(b*a)*(a+b)"))
        assert g.automaton == glushkov_two_lookahead()

    def test_two_block(self):
        g = glushkov(parse("[aa]*([ab]b+ba)b*"))
        assert g.automaton == glushkov_two_block()

    def test_state_count_is_positions_plus_one(self, block_corpus):
        for expr in block_corpus:
            g = glushkov(expr)
            assert len(g.automaton.states) == len(mark(expr).positions) + 1

    def test_position_side_table(self):
        g = glushkov(parse("[aa]*([ab]b+ba)b*"))
        assert g.position_of_state["aa_1"].block == BlockSymbol("aa")
        assert g.position_of_state["b_6"].index == 6
        assert "i" not in g.position_of_state

    def test_empty_expression_is_one_state(self):
        # First = Last = {}: the initial state alone, not final.
        a = glushkov(Empty()).automaton
        assert a == BlockAutomaton.make(states={"i"}, initials={"i"})
        assert check_glushkov_shape(a)

    def test_epsilon(self):
        g = glushkov(parse("eps"))
        assert g.automaton.states == frozenset({"i"})
        assert g.automaton.finals == frozenset({"i"})
        assert not g.automaton.transitions

    def test_accepts_matches_expression_semantics(self, block_corpus):
        for expr in block_corpus:
            a = glushkov(expr).automaton
            assert set(enumerate_words(a, 6)) == base_language(expr, 6)


class TestShapeCheck:
    def test_glushkov_outputs_pass(self, block_corpus):
        for expr in block_corpus:
            assert check_glushkov_shape(glushkov(expr).automaton)

    def test_min_dfa_not_homogeneous(self):
        # State 4 is entered by `a` from 2 and by `b` from 3; the check stops
        # earlier, though, since the initial state is re-entered from 1.
        assert not check_glushkov_shape(min_dfa_two_block())

    def test_two_entering_labels_not_homogeneous(self):
        # Standard, but state 2 is entered by `a` from i and by `b` from 1.
        edges = [("i", "a", "2"), ("i", "b", "1"), ("1", "b", "2")]
        a = BlockAutomaton.make(states={"i", "1", "2"}, initials={"i"}, finals={"2"}, transitions=edges)
        assert not check_glushkov_shape(a)
        edges[2] = ("1", "a", "2")
        a = BlockAutomaton.make(states={"i", "1", "2"}, initials={"i"}, finals={"2"}, transitions=edges)
        assert check_glushkov_shape(a)

    def test_edge_into_initial_not_standard(self):
        a = BlockAutomaton.make(
            states={"i", "1"},
            initials={"i"},
            finals={"1"},
            transitions=[("i", "a", "1"), ("1", "a", "i")],
        )
        assert not check_glushkov_shape(a)

    def test_two_initials_not_standard(self):
        a = BlockAutomaton.make(states={"p", "q"}, initials={"p", "q"}, finals={"p"})
        assert not check_glushkov_shape(a)


class TestAlphabeticImage:
    def test_identity(self):
        a = glushkov_two_block()
        identity = {b: b for b in a.alphabet}
        assert alphabetic_image(a, identity) == a

    def test_two_block_image_is_deterministic(self):
        a = glushkov_two_block()
        mapping = {
            BlockSymbol("aa"): BlockSymbol("x"),
            BlockSymbol("ab"): BlockSymbol("y"),
            BlockSymbol("a"): BlockSymbol("a"),
            BlockSymbol("b"): BlockSymbol("b"),
        }
        image = alphabetic_image(a, mapping)
        assert image.width == 1
        assert is_deterministic(image)

    def test_round_trip(self):
        a = glushkov_two_block()
        forward = {
            BlockSymbol("aa"): BlockSymbol("x"),
            BlockSymbol("ab"): BlockSymbol("y"),
            BlockSymbol("a"): BlockSymbol("a"),
            BlockSymbol("b"): BlockSymbol("b"),
        }
        backward = {v: k for k, v in forward.items()}
        assert alphabetic_image(alphabetic_image(a, forward), backward) == a

    def test_shape_preserved_both_ways(self, block_corpus):
        # Injective relabelling keeps the shape conditions in both directions.
        for expr in block_corpus:
            a = glushkov(expr).automaton
            blocks = sorted({t.label for t in a.transitions})
            mapping = {b: BlockSymbol(f"z{i}") for i, b in enumerate(blocks)}
            image = alphabetic_image(a, mapping)
            assert check_glushkov_shape(image) == check_glushkov_shape(a)

    def test_non_injective_rejected(self):
        a = glushkov_two_block()
        squash = {b: BlockSymbol("z") for b in a.alphabet}
        with pytest.raises(ValueError):
            alphabetic_image(a, squash)

    def test_partial_mapping_rejected(self):
        with pytest.raises(ValueError):
            alphabetic_image(glushkov_two_block(), {BlockSymbol("aa"): BlockSymbol("x")})


def test_json_includes_positions():
    data = glushkov_to_json(glushkov(parse("[aa]*([ab]b+ba)b*")))
    assert data["positions"]["ab_2"] == {"index": 2, "block": "ab"}
    assert data["initials"] == ["i"]
