"""Shared figure automata, the expression corpus, and a random generator."""

from __future__ import annotations

import random

import pytest

from blockdet import BlockAutomaton, BlockSymbol, parse
from blockdet.syntax import (
    Concat,
    Epsilon,
    Literal,
    RegexAst,
    Star,
    Union,
    language,
    positions,
)


def glushkov_union_tail() -> BlockAutomaton:
    """Position automaton of (a+b)*a+eps, transitions as drawn."""
    return BlockAutomaton.make(
        states={"i", "a_1", "b_2", "a_3"},
        initials={"i"},
        finals={"i", "a_3"},
        transitions=[
            ("i", "a", "a_1"),
            ("i", "a", "a_3"),
            ("i", "b", "b_2"),
            ("a_1", "a", "a_1"),
            ("a_1", "b", "b_2"),
            ("a_1", "a", "a_3"),
            ("b_2", "b", "b_2"),
            ("b_2", "a", "a_1"),
            ("b_2", "a", "a_3"),
        ],
    )


def glushkov_two_lookahead() -> BlockAutomaton:
    """Position automaton of b*a(b*a)*(a+b)."""
    return BlockAutomaton.make(
        states={"i", "b_1", "a_2", "b_3", "a_4", "a_5", "b_6"},
        initials={"i"},
        finals={"a_5", "b_6"},
        transitions=[
            ("i", "b", "b_1"),
            ("i", "a", "a_2"),
            ("b_1", "b", "b_1"),
            ("b_1", "a", "a_2"),
            ("a_2", "b", "b_3"),
            ("a_2", "a", "a_4"),
            ("a_2", "a", "a_5"),
            ("a_2", "b", "b_6"),
            ("b_3", "b", "b_3"),
            ("b_3", "a", "a_4"),
            ("a_4", "b", "b_3"),
            ("a_4", "a", "a_4"),
            ("a_4", "a", "a_5"),
            ("a_4", "b", "b_6"),
        ],
    )


def glushkov_two_block() -> BlockAutomaton:
    """Position automaton of [aa]*([ab]b+ba)b*."""
    return BlockAutomaton.make(
        states={"i", "aa_1", "ab_2", "b_3", "b_4", "a_5", "b_6"},
        initials={"i"},
        finals={"b_3", "a_5", "b_6"},
        transitions=[
            ("i", "aa", "aa_1"),
            ("i", "ab", "ab_2"),
            ("i", "b", "b_4"),
            ("aa_1", "aa", "aa_1"),
            ("aa_1", "ab", "ab_2"),
            ("aa_1", "b", "b_4"),
            ("ab_2", "b", "b_3"),
            ("b_3", "b", "b_6"),
            ("b_4", "a", "a_5"),
            ("a_5", "b", "b_6"),
            ("b_6", "b", "b_6"),
        ],
    )


def min_dfa_two_block() -> BlockAutomaton:
    """Minimal DFA of L([aa]*([ab]b+ba)b*)."""
    return BlockAutomaton.make(
        states={"i", "1", "2", "3", "4"},
        initials={"i"},
        finals={"4"},
        transitions=[
            ("i", "a", "1"),
            ("i", "b", "2"),
            ("1", "a", "i"),
            ("1", "b", "3"),
            ("2", "a", "4"),
            ("3", "b", "4"),
            ("4", "b", "4"),
        ],
    )


def standardized_counterexample() -> BlockAutomaton:
    """The standardization of the counter-example automaton."""
    return BlockAutomaton.make(
        states={"i'", "i", "1", "2"},
        initials={"i'"},
        finals={"1", "2"},
        transitions=[
            ("i'", "a", "1"),
            ("i'", "b", "2"),
            ("i", "a", "1"),
            ("i", "b", "2"),
            ("1", "b", "i"),
        ],
    )


def rewired_counterexample() -> BlockAutomaton:
    """The counter-example after eliminating the old initial state."""
    return BlockAutomaton.make(
        states={"i'", "1", "2"},
        initials={"i'"},
        finals={"1", "2"},
        transitions=[("i'", "a", "1"), ("i'", "b", "2"), ("1", "ba", "1"), ("1", "bb", "2")],
    )


# Block expression corpus: the classic textbook examples plus a handful of invented ones.
BLOCK_EXPRESSION_TEXTS = [
    "[aa]*([ab]b+ba)b*",
    "[aaa]*([aab]b+ba)b*",
    "(a([aa])*([ab]a+bb)+ba)b*",
    "(aa([aa]a)*([ab]a+bb)+ba)b*",
    "(a(eps+[bc]))*(eps+[bb])",
    "(a(eps+[bbc]))*(eps+[bbb])",
    "([aba]+[abb])*[aa]",
    "(a+b)*a+eps",
    "b*a(b*a)*(a+b)",
    "[ab][ba]*",
    "a[bc]*+[cb]a",
    "([ab]+b)(a+[ba])*",
]


@pytest.fixture(scope="session")
def block_corpus() -> list[RegexAst]:
    return [parse(text) for text in BLOCK_EXPRESSION_TEXTS]


WIDTH1_EXPRESSION_TEXTS = [
    "(a+b)*a+eps",
    "b*a(b*a)*(a+b)",
    "a",
    "eps",
    "a**",
    "(ab+ba)*",
    "a(b+c)a*",
    "(aaa)*(eps+a)",
    "(aaaaa)*(eps+aa)",
    "b*(ab*)*",
    "empty",
]


@pytest.fixture(scope="session")
def width1_corpus() -> list[RegexAst]:
    return [parse(text) for text in WIDTH1_EXPRESSION_TEXTS]


def nested_orbits(depth: int) -> str:
    """`c(…)*d` nested `depth` deep around `a`: a minimal DFA of depth + 2
    states whose BKW tree has factorially many nodes but only
    depth(depth + 1)/2 + 1 distinct node automata."""
    text = "a"
    for _ in range(depth):
        text = f"c({text})*d"
    return text


def random_expression(
    rng: random.Random, max_positions: int, max_width: int, letters: str = "abc"
) -> RegexAst:
    """A random trimmed expression over `letters` with a position budget."""

    def node(budget: int, depth: int) -> tuple[RegexAst, int]:
        choices = ["literal"]
        if budget >= 1 and depth < 6:
            choices += ["union", "concat", "star", "star"]
        if depth > 0:
            choices += ["epsilon"]
        kind = rng.choice(choices)
        if kind == "epsilon" or budget <= 0:
            return Epsilon(), 0
        if kind == "literal":
            width = rng.randint(1, min(max_width, budget))
            block = "".join(rng.choice(letters) for _ in range(width))
            return Literal(BlockSymbol(block)), 1
        if kind == "star":
            child, used = node(budget, depth + 1)
            return Star(child), used
        left, used_left = node(budget, depth + 1)
        right_budget = budget - used_left if kind == "concat" else budget
        right, used_right = node(max(0, right_budget), depth + 1)
        cls = Concat if kind == "concat" else Union
        return cls(left, right), used_left + used_right

    while True:
        expr, _ = node(max_positions, 0)
        n = sum(1 for _ in _literals(expr))
        if 1 <= n <= max_positions:
            return expr


def _literals(expr: RegexAst):
    if isinstance(expr, Literal):
        yield expr.symbol
    elif isinstance(expr, (Union, Concat)):
        yield from _literals(expr.left)
        yield from _literals(expr.right)
    elif isinstance(expr, Star):
        yield from _literals(expr.child)


def path_language(marked, maxlen: int) -> set[tuple]:
    """Marked words readable off the position table: an oracle for L(E#)
    that is independent of the inductive semantics."""
    table = positions(marked)
    words: set[tuple] = set()
    if table.nullable:
        words.add(())
    frontier = [(p,) for p in table.first]
    while frontier:
        nxt = []
        for word in frontier:
            if word[-1] in table.last:
                words.add(word)
            if len(word) < maxlen:
                nxt.extend(word + (p,) for p in table.follow[word[-1]])
        frontier = nxt
    return words


def bounded_language(expr: RegexAst, maxlen: int) -> set[tuple]:
    return language(expr, maxlen)


def reference_postorder(roots, successors) -> list | None:
    """The depth-first walk that `automaton.longest_path` replaced, kept as
    its referee: every node reachable from the roots, each listed after all
    of its successors, or None when a cycle is reachable."""
    order: list = []
    finished: set = set()
    for root in roots:
        if root in finished:
            continue
        on_path = {root}
        stack = [(root, iter(successors(root)))]
        while stack:
            node, pending = stack[-1]
            for nxt in pending:
                if nxt in on_path:
                    return None
                if nxt not in finished:
                    on_path.add(nxt)
                    stack.append((nxt, iter(successors(nxt))))
                    break
            else:
                stack.pop()
                on_path.remove(node)
                finished.add(node)
                order.append(node)
    return order
