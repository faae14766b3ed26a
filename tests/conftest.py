"""Shared figure automata, the expression corpus, and a random generator."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from blockdet import BlockAutomaton, BlockSymbol, parse
from blockdet.automaton import longest_path
from blockdet.lookahead import _clash_groups
from blockdet.syntax import (
    KEYWORDS,
    Concat,
    Empty,
    Epsilon,
    Literal,
    Position,
    PositionTable,
    RegexAst,
    Star,
    Union,
    fold,
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


def dense_nfa(rng: random.Random, n: int) -> BlockAutomaton:
    """A rung of the lookahead's NFA ladder: n states s0 .. s(n-1), s0
    initial and the last final, and 3n transitions over ab drawn at random
    (one drawn twice counts once), so most states have a clash group."""
    names = [f"s{i}" for i in range(n)]
    transitions = [(rng.choice(names), rng.choice("ab"), rng.choice(names)) for _ in range(3 * n)]
    return BlockAutomaton.make(names, names[:1], names[-1:], transitions)


def reference_common_depths(a: BlockAutomaton) -> list[int]:
    """The pair table that `BlockAutomaton.common_depths` kept before the
    lookahead walks fell back per clash group, kept as their referee: one
    depth per clashing pair of a width-1 automaton (the pairs inside each
    clash group, in sorted order), the length of the longest label word
    that both targets read, or -1 when they read common words of every
    length.  One walk of the pair graph from the targets of every pair."""
    edges = a.out_edges
    finished: dict = {}

    def successors(pair) -> list:
        p, q = pair
        found = []
        for i, t1 in enumerate(edges[p]):
            for t2 in edges[q][i:] if p == q else edges[q]:
                if t1.label == t2.label:
                    x, y = t1.target, t2.target
                    found.append((x, y) if x <= y else (y, x))
        return found

    depths = []
    for group in _clash_groups(edges):
        for t1, t2 in combinations(group, 2):
            x, y = t1.target, t2.target
            root = (x, y) if x <= y else (y, x)
            depth = finished.get(root)
            depths.append(longest_path(root, successors, finished) if depth is None else depth)
    return depths


def reference_mark(ast: RegexAst) -> tuple[RegexAst, tuple]:
    """The marking that `syntax.mark` replaced, kept as its referee: a fold
    that builds the marked tree, each literal carrying its `Position`, and
    the positions, left to right."""
    if isinstance(ast, Empty):
        return ast, ()
    acc: list = []

    def leaf(node: RegexAst) -> RegexAst:
        if isinstance(node, Empty):
            raise ValueError("expression is not trimmed: `empty` occurs as a subterm")
        if not isinstance(node, Literal):
            return node
        if not isinstance(node.symbol, BlockSymbol):
            raise ValueError("expression is already marked")
        acc.append(Position(len(acc) + 1, node.symbol))
        return Literal(acc[-1])

    return fold(ast, leaf, Union, Concat, Star), tuple(acc)


def reference_positions(marked_ast: RegexAst) -> PositionTable:
    """The position functions as `syntax.positions` computed them before it
    merged First and Last in place, kept as its referee: every union and
    concatenation copies its children's sets.  Reads a marked tree."""
    follow: dict = {}

    def leaf(node):
        if isinstance(node, Literal):
            if node.symbol in follow:
                raise ValueError(f"symbol occurs twice, input is not marked: {node.symbol}")
            follow[node.symbol] = set()
            return False, {node.symbol}, {node.symbol}
        return isinstance(node, Epsilon), set(), set()

    def union(left, right):
        (nl, fl, ll), (nr, fr, lr) = left, right
        return nl or nr, fl | fr, ll | lr

    def concat(left, right):
        (nl, fl, ll), (nr, fr, lr) = left, right
        for x in ll:
            follow[x] |= fr
        return nl and nr, fl | (fr if nl else set()), lr | (ll if nr else set())

    def star(child):
        _, f, l = child
        for x in l:
            follow[x] |= f
        return True, f, l

    nullable, first, last = fold(marked_ast, leaf, union, concat, star)
    return PositionTable(
        nullable, frozenset(first), frozenset(last), {x: frozenset(f) for x, f in follow.items()}
    )


def reference_to_text(ast: RegexAst) -> str:
    """The printer that `syntax.to_text` replaced, kept as its referee: each
    union and concatenation copies its left operand's text."""

    def wrap(part: tuple[str, int], min_prec: int) -> str:
        text, prec = part
        return f"({text})" if prec < min_prec else text

    def join(left: str, right: str) -> str:
        joined = left + right
        cut = len(left)
        for kw in KEYWORDS:
            for start in range(max(0, cut - len(kw) + 1), cut):
                if joined.startswith(kw, start):
                    return left + "." + right
        return joined

    def leaf_text(leaf: RegexAst) -> str:
        if isinstance(leaf, Empty):
            return "empty"
        if isinstance(leaf, Epsilon):
            return "eps"
        return str(leaf.symbol)

    return fold(
        ast,
        lambda leaf: (leaf_text(leaf), 4),
        lambda left, right: (left[0] + "+" + wrap(right, 2), 1),
        lambda left, right: (join(wrap(left, 2), wrap(right, 3)), 2),
        lambda child: (wrap(child, 3) + "*", 3),
    )[0]
