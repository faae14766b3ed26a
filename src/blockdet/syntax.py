"""Regular expressions over blocks: parsing, printing, marking, position functions.

A block is a non-empty word over the base alphabet used as a single symbol;
plain regular expressions are the width-1 special case.  Concrete syntax:
union ``+`` (lowest precedence), concatenation by juxtaposition or ``.``,
postfix ``*`` (highest), parentheses, ``[xyz]`` block literals, ``eps`` for
the empty word and ``empty`` for the empty set.  Whitespace is ignored and
base letters are restricted to alphanumerics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple

KEYWORDS = ("empty", "eps")


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the offending column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position})")
        self.position = position


class BlockSymbol(str):
    """A literal/transition label: a non-empty word over the base alphabet.

    A `str` subclass, so hashing, equality and ordering are those of its
    letters and run in C; ``BlockSymbol("ab") == "ab"``.  ``str()`` and
    f-strings give the pretty form (``[ab]``), ``letters`` the plain word.
    """

    __slots__ = ()

    def __new__(cls, letters: str) -> "BlockSymbol":
        if not isinstance(letters, str):
            raise ValueError(f"a block is a string of letters: {letters!r}")
        if not letters:
            raise ValueError("a block needs at least one letter")
        if not letters.isalnum():
            raise ValueError(f"block letters must be alphanumeric: {letters!r}")
        return super().__new__(cls, letters)

    @property
    def letters(self) -> str:
        return str.__str__(self)

    @property
    def width(self) -> int:
        return len(self)

    def drop(self) -> "BlockSymbol":
        return self

    def pretty(self) -> str:
        letters = self.letters
        return letters if len(letters) == 1 else f"[{letters}]"

    __str__ = pretty

    def __format__(self, spec: str) -> str:
        return format(self.pretty(), spec)

    def __repr__(self) -> str:
        return f"BlockSymbol({str.__repr__(self)})"


class Position(NamedTuple):
    """One indexed block occurrence of a marked expression; a tuple, so
    hashing, equality and ordering (index, then block) run in C."""

    index: int
    block: BlockSymbol

    def drop(self) -> BlockSymbol:
        return self.block

    def state_name(self) -> str:
        return f"{self.block.letters}_{self.index}"

    def pretty(self) -> str:
        return f"{self.block.pretty()}_{self.index}"

    __str__ = pretty


class RegexAst:
    """Base class of expression nodes.  Expressions are equal, and hash alike,
    by structure and literal symbols at any depth: both read `_postfix`."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegexAst):
            return NotImplemented
        return _postfix(self) == _postfix(other)

    def __hash__(self) -> int:
        return hash(tuple(_postfix(self)))

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True, eq=False)
class Empty(RegexAst):
    pass


@dataclass(frozen=True, eq=False)
class Epsilon(RegexAst):
    pass


@dataclass(frozen=True, eq=False)
class Literal(RegexAst):
    # BlockSymbol in plain expressions; Position / ExpandedSymbol in derived ones.
    symbol: object


@dataclass(frozen=True, eq=False)
class Union(RegexAst):
    left: RegexAst
    right: RegexAst


@dataclass(frozen=True, eq=False)
class Concat(RegexAst):
    left: RegexAst
    right: RegexAst


@dataclass(frozen=True, eq=False)
class Star(RegexAst):
    child: RegexAst


def fold(ast: RegexAst, leaf, union, concat, star):
    """Post-order fold of an expression without recursion: ``leaf(node)`` on
    `empty`, `eps` and literals, left to right; ``union(left, right)``,
    ``concat(left, right)`` and ``star(child)`` on the values of each inner
    node's children."""
    values: list = []
    todo: list = [ast]  # nodes to visit, and node classes marking a combine step
    while todo:
        node = todo.pop()
        if node is Union or node is Concat:
            right = values.pop()
            values[-1] = (union if node is Union else concat)(values[-1], right)
        elif node is Star:
            values[-1] = star(values[-1])
        elif isinstance(node, (Literal, Epsilon, Empty)):
            values.append(leaf(node))
        elif isinstance(node, Union):
            todo += (Union, node.right, node.left)
        elif isinstance(node, Concat):
            todo += (Concat, node.right, node.left)
        elif isinstance(node, Star):
            todo += (Star, node.child)
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return values[0]


def _postfix(ast: RegexAst) -> list:
    """The expression in postfix order, which determines it: each literal's
    symbol, and the class of every other node after its children's."""
    out: list = []
    leaf = lambda node: out.append(node.symbol if isinstance(node, Literal) else type(node))
    inner = lambda cls: lambda *_: out.append(cls)
    fold(ast, leaf, inner(Union), inner(Concat), inner(Star))
    return out


# --- parsing ---------------------------------------------------------------

_ATOM_STARTS = {"letter", "block", "(", "eps", "empty"}
# Whitespace, then a keyword or operator, a block literal and its closing
# bracket if any, a letter (`[^\W_]` is `str.isalnum`), or another character.
_TOKEN = re.compile(r"\s*((" + "|".join(KEYWORDS) + r"|[+.*()])|\[([^\]]*)(\]?)|([^\W_])|\S)")


def _lex(text: str) -> list[tuple[str, str | None, int]]:
    out: list[tuple[str, str | None, int]] = []
    end = 0
    while match := _TOKEN.match(text, end):  # none once only whitespace is left
        token, word, inner, close, letter = match.groups()
        pos, end = match.start(1), match.end()
        if word:
            out.append((word, None, pos))
        elif letter:
            out.append(("letter", letter, pos))
        elif inner is None:
            raise ExprSyntaxError(f"unexpected character {token!r}", pos)
        elif not close:
            raise ExprSyntaxError("unterminated block literal", pos)
        elif not inner:
            raise ExprSyntaxError("empty block []", pos)
        elif not inner.isalnum():
            raise ExprSyntaxError("block letters must be alphanumeric", pos + 1)
        else:
            out.append(("block", inner, pos))
    out.append(("end", None, len(text)))
    return out


def parse(text: str) -> RegexAst:
    """Parse expression text into an AST; ``parse(to_text(e)) == e``."""
    groups: list[tuple] = []  # (union, concat) of each enclosing open parenthesis
    # `union` and `concat` are the left operands built so far in the current
    # group; `node` is the operand being read, None while one is expected.
    union = concat = node = None
    for kind, value, pos in _lex(text):
        if node is not None:
            if kind == "*":
                node = Star(node)
                continue
            concat = node if concat is None else Concat(concat, node)
            node = None
            if kind == "+":
                union, concat = concat if union is None else Union(union, concat), None
            elif kind in (")", "end"):
                closed = concat if union is None else Union(union, concat)
                if kind == "end":
                    if groups:
                        raise ExprSyntaxError("expected )", pos)
                    return closed
                if not groups:
                    raise ExprSyntaxError("unexpected trailing input", pos)
                (union, concat), node = groups.pop(), closed
            if kind not in _ATOM_STARTS:
                continue
        if kind in ("letter", "block"):
            node = Literal(BlockSymbol(value))
        elif kind == "eps":
            node = Epsilon()
        elif kind == "empty":
            node = Empty()
        elif kind == "(":
            groups.append((union, concat))
            union = concat = None
        else:
            raise ExprSyntaxError("expected an expression", pos)


# --- printing --------------------------------------------------------------


def to_text(ast: RegexAst) -> str:
    """Render to concrete syntax (round-trips through parse for plain ASTs)."""

    def wrap(part: tuple[str, int], min_prec: int) -> str:
        text, prec = part
        return f"({text})" if prec < min_prec else text

    return fold(
        ast,
        lambda leaf: (_leaf_text(leaf), 4),
        lambda left, right: (left[0] + "+" + wrap(right, 2), 1),
        lambda left, right: (_join(wrap(left, 2), wrap(right, 3)), 2),
        lambda child: (wrap(child, 3) + "*", 3),
    )[0]


def _leaf_text(leaf: RegexAst) -> str:
    if isinstance(leaf, Empty):
        return "empty"
    if isinstance(leaf, Epsilon):
        return "eps"
    return str(leaf.symbol)


def _join(left: str, right: str) -> str:
    # Juxtaposition may not create an `eps`/`empty` keyword across the seam;
    # fall back to the explicit concatenation dot when it would.
    joined = left + right
    cut = len(left)
    for kw in KEYWORDS:
        for start in range(max(0, cut - len(kw) + 1), cut):
            if joined.startswith(kw, start):
                return left + "." + right
    return joined


# --- marking and dropping ---------------------------------------------------


@dataclass(frozen=True)
class MarkedExpression:
    """An expression whose literal occurrences carry unique indices."""

    ast: RegexAst
    positions: tuple


def literal_symbols(ast: RegexAst) -> Iterator:
    """Leaf symbols in left-to-right order."""
    return (s for s in _postfix(ast) if not isinstance(s, type))


def width(ast: RegexAst) -> int:
    """Largest block width occurring in the expression (0 if none)."""
    return max((sym.drop().width for sym in literal_symbols(ast)), default=0)


def is_trimmed(ast: RegexAst) -> bool:
    """True iff the expression is `empty` itself or contains no `empty` node."""
    return isinstance(ast, Empty) or Empty not in _postfix(ast)


def mark(ast: RegexAst) -> MarkedExpression:
    """Index block occurrences 1..n left to right."""
    if isinstance(ast, Empty):
        return MarkedExpression(ast, ())
    acc: list[Position] = []

    def leaf(node: RegexAst) -> RegexAst:
        if isinstance(node, Empty):
            raise ValueError("expression is not trimmed: `empty` occurs as a subterm")
        if not isinstance(node, Literal):
            return node
        if not isinstance(node.symbol, BlockSymbol):
            raise ValueError("expression is already marked")
        acc.append(Position(len(acc) + 1, node.symbol))
        return Literal(acc[-1])

    marked = fold(ast, leaf, Union, Concat, Star)
    return MarkedExpression(marked, tuple(acc))


def drop(value: MarkedExpression | RegexAst) -> RegexAst:
    """Remove indices (and flatten expanded letters) back to a plain expression."""
    ast = value.ast if isinstance(value, MarkedExpression) else value
    leaf = lambda node: Literal(node.symbol.drop()) if isinstance(node, Literal) else node
    return fold(ast, leaf, Union, Concat, Star)


# --- position functions ------------------------------------------------------


@dataclass(frozen=True)
class PositionTable:
    """Null/First/Last/Follow of a marked expression."""

    nullable: bool
    first: frozenset
    last: frozenset
    follow: Mapping


def positions(marked: MarkedExpression | RegexAst) -> PositionTable:
    """Compute the position functions by structural induction."""
    ast = marked.ast if isinstance(marked, MarkedExpression) else marked
    follow: dict = {}

    def leaf(node: RegexAst) -> tuple[bool, set, set]:
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

    nullable, first, last = fold(ast, leaf, union, concat, star)
    return PositionTable(
        nullable,
        frozenset(first),
        frozenset(last),
        # Each set is dropped as it is frozen, so the table is never held twice.
        {x: frozenset(follow.pop(x)) for x in list(follow)},
    )


# --- bounded language semantics ----------------------------------------------


def language(ast: RegexAst, max_symbols: int) -> set[tuple]:
    """All words of L(ast) with at most ``max_symbols`` symbols, symbols atomic.

    Computed from the inductive language definition, independently of any
    automaton construction; serves as the brute-force oracle.
    """
    if max_symbols < 0:
        raise ValueError("max_symbols must be >= 0")
    lengths = range(max_symbols + 1)

    # A language is a list of word sets indexed by word length, so that
    # concatenation pairs only words whose lengths stay within the bound.
    def leaf(node: RegexAst) -> list[set]:
        words: list[set] = [set() for _ in lengths]
        if isinstance(node, Epsilon):
            words[0].add(())
        elif isinstance(node, Literal) and max_symbols >= 1:
            words[1].add((node.symbol,))
        return words

    def union(left: list[set], right: list[set]) -> list[set]:
        return [u | v for u, v in zip(left, right)]

    def concat(left: list[set], right: list[set]) -> list[set]:
        words: list[set] = [set() for _ in lengths]
        for i, us in enumerate(left):
            for j in range(max_symbols - i + 1):
                words[i + j].update(u + v for u in us for v in right[j])
        return words

    def star(child: list[set]) -> list[set]:
        # words of length n: a shorter star word followed by one non-empty step
        words: list[set] = [{()}]
        for n in lengths[1:]:
            words.append(
                {u + v for step in range(1, n + 1) for u in words[n - step] for v in child[step]}
            )
        return words

    return frozenset().union(*fold(ast, leaf, union, concat, star))


def base_language(ast: RegexAst, max_letters: int) -> set[str]:
    """Words of L(ast) flattened to base letters, up to ``max_letters`` long."""
    out = set()
    for word in language(ast, max_letters):
        flat = "".join(sym.drop().letters for sym in word)
        if len(flat) <= max_letters:
            out.add(flat)
    return out


# --- JSON ---------------------------------------------------------------------


def ast_to_json(ast: RegexAst) -> dict:
    return fold(
        ast,
        _leaf_json,
        lambda left, right: {"kind": "union", "left": left, "right": right},
        lambda left, right: {"kind": "concat", "left": left, "right": right},
        lambda child: {"kind": "star", "child": child},
    )


def _leaf_json(node: RegexAst) -> dict:
    if isinstance(node, Empty):
        return {"kind": "empty"}
    if isinstance(node, Epsilon):
        return {"kind": "epsilon"}
    symbol = node.symbol
    text = symbol.letters if isinstance(symbol, BlockSymbol) else str(symbol)
    return {"kind": "literal", "symbol": text}


def ast_from_json(data: dict) -> RegexAst:
    built: list[RegexAst] = []
    todo: list = [data]  # JSON objects to read, and node classes marking a build step
    while todo:
        item = todo.pop()
        if item is Union or item is Concat:
            right = built.pop()
            built[-1] = item(built[-1], right)
            continue
        if item is Star:
            built[-1] = Star(built[-1])
            continue
        if not isinstance(item, dict) or "kind" not in item:
            raise ValueError("expression JSON must be an object with a 'kind' field")
        kind = item["kind"]
        if kind == "empty":
            built.append(Empty())
        elif kind == "epsilon":
            built.append(Epsilon())
        elif kind == "literal":
            built.append(Literal(BlockSymbol(item["symbol"])))
        elif kind == "union":
            todo += (Union, item["right"], item["left"])
        elif kind == "concat":
            todo += (Concat, item["right"], item["left"])
        elif kind == "star":
            todo += (Star, item["child"])
        else:
            raise ValueError(f"unknown expression node kind: {kind!r}")
    return built[0]
