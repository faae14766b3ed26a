"""The expression front end against the referees it replaced: marking
without a second tree, First/Last merged in place, the chain-joining
printer and the Glushkov construction give the parent algorithms' values."""

import random

import pytest

from blockdet import BlockAutomaton, MarkedExpression, glushkov, mark, parse, positions, to_text
from blockdet.automaton import Transition
from blockdet.syntax import BlockSymbol, Concat, Empty, Epsilon, Literal, Star, Union
from blockdet.transform import chi

from conftest import (
    BLOCK_EXPRESSION_TEXTS,
    random_expression,
    reference_mark,
    reference_positions,
    reference_to_text,
)


def lit(s):
    return Literal(BlockSymbol(s))


def _reference_glushkov(expr):
    """The position automaton built from the referees, through `make`."""
    marked_ast, marked = reference_mark(expr)
    table = reference_positions(marked_ast)
    name = {p: p.state_name() for p in marked}
    transitions = {("i", p.block, name[p]) for p in table.first}
    transitions |= {(name[x], p.block, name[p]) for x, f in table.follow.items() for p in f}
    finals = {name[p] for p in table.last} | ({"i"} if table.nullable else set())
    automaton = BlockAutomaton.make({"i", *name.values()}, {"i"}, finals, transitions)
    return automaton, {name[p]: p for p in marked}


def _spelled(rng, word):
    """Concatenations of the word's letters, some starred, split mostly
    before the last letter, as the parser builds them, so that seams fall
    inside `eps` and `empty`."""
    if len(word) == 1:
        return Star(lit(word)) if rng.random() < 0.1 else lit(word)
    cut = len(word) - 1 if rng.random() < 0.8 else rng.randrange(1, len(word))
    node = Concat(_spelled(rng, word[:cut]), _spelled(rng, word[cut:]))
    return Union(node, Epsilon()) if rng.random() < 0.1 else node


def _corpus():
    rng = random.Random(2501)
    for i in range(600):
        yield random_expression(rng, 1 + i % 12, 1 + i % 3)
    pieces = ["e", "em", "emp", "empt", "empty", "ep", "eps", "p", "s", "t", "y", "m"]
    for _ in range(200):
        yield _spelled(rng, "".join(rng.choice(pieces) for _ in range(rng.randint(1, 5))))
    words = {"".join(rng.choice("ab") for _ in range(8)) for _ in range(2000)}
    yield parse("+".join(sorted(words)))
    text = "a"
    for depth in range(40):
        text = f"({text})*" if depth % 2 else f"({text}b*)*c"
    yield parse(text)
    yield parse("".join(f"(eps+{c})" for c in "abcabcabc" * 5))
    yield parse("".join(f"{c}*" for c in "epsmty" * 8))
    yield parse("(" + "+".join(f"{c}*eps" for c in "abc" * 10) + ")*")
    yield from map(parse, BLOCK_EXPRESSION_TEXTS)
    # Right-nested chains, which `parse` never builds, and their mixtures.
    for classes in ([Union], [Concat], [Union, Concat], [Concat, Concat, Union]):
        node = lit("e")
        for i in range(300):
            cls = classes[i % len(classes)]
            node = cls(lit("eps"[i % 3]), Star(node) if i % 7 == 0 else node)
        yield node


def test_front_end_matches_the_referees():
    for expr in _corpus():
        marked_ast, marked_positions = reference_mark(expr)
        marked = mark(expr)
        assert marked.tree is expr and marked.positions == marked_positions
        table = positions(marked)
        g = glushkov(marked)
        assert "ast" not in marked.__dict__  # read from the leaf order
        assert table == reference_positions(marked_ast)
        automaton, position_of_state = _reference_glushkov(expr)
        assert g.automaton == automaton and g.position_of_state == position_of_state
        assert all(type(t) is Transition for t in g.automaton.transitions)
        assert marked.ast == marked_ast
        assert to_text(expr) == reference_to_text(expr)
        assert to_text(marked.ast) == reference_to_text(marked_ast)
        assert to_text(chi(marked).ast) == reference_to_text(chi(marked).ast)


def test_wide_union_prints_like_the_referee():
    expr = parse("+".join(["a"] * 20000))
    assert to_text(expr) == reference_to_text(expr) == "+".join(["a"] * 20000)


def test_right_nested_chain_prints_like_the_referee():
    text = "a+a"
    for _ in range(20000 - 2):
        text = f"a+({text})"
    expr = parse(text)
    assert type(expr.right) is Union
    assert to_text(expr) == reference_to_text(expr) == text


@pytest.mark.parametrize(
    "node",
    [Empty(), Epsilon(), lit("a"), Union(lit("a"), lit("b")), Concat(lit("a"), lit("b")), Star(lit("a"))],
    ids=repr,
)
def test_nodes_refuse_assignment_and_have_no_dict(node):
    assert not hasattr(node, "__dict__")
    for name in ("symbol", "left", "right", "child", "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, lit("c"))
        with pytest.raises(AttributeError):
            delattr(node, name)


def test_node_repr_names_fields():
    assert repr(parse("[ab]*+eps")) == (
        "Union(left=Star(child=Literal(symbol=BlockSymbol('ab'))), right=Epsilon())"
    )
    assert repr(Concat(right=Empty(), left=lit("a"))) == (
        "Concat(left=Literal(symbol=BlockSymbol('a')), right=Empty())"
    )


class TestMarkedExpression:
    def test_ast_is_built_once_on_first_read(self):
        marked = mark(parse("(a+b)*a"))
        assert "ast" not in marked.__dict__
        assert marked.ast is marked.ast
        assert to_text(marked.ast) == "(a_1+b_2)*a_3"

    def test_equality_reads_the_marked_tree(self):
        expr = parse("[ab]*(a+eps)")
        marked_ast, marked_positions = reference_mark(expr)
        built = MarkedExpression(marked_ast, marked_positions)
        assert built == mark(expr) and hash(built) == hash(mark(expr))
        assert mark(expr) != mark(parse("[ab]*(eps+a)"))
        assert mark(parse("a+b")) != mark(parse("ab"))

    def test_leaf_count_must_match_positions(self):
        with pytest.raises(ValueError, match="^the tree has 2 literals but 1 positions$"):
            MarkedExpression(parse("a+b"), mark(parse("a")).positions)
        with pytest.raises(ValueError, match="^the tree has 0 literals but 1 positions$"):
            MarkedExpression(Epsilon(), mark(parse("a")).positions)

    def test_refuses_assignment(self):
        marked = mark(parse("a"))
        with pytest.raises(AttributeError):
            marked.positions = ()
        with pytest.raises(AttributeError):
            del marked.tree
