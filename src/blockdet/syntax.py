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
from collections import namedtuple
from collections.abc import Iterator, Mapping
from functools import cached_property

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
        # From the letters: `str.__new__` reads a BlockSymbol's pretty `__str__`.
        return super().__new__(cls, str.__str__(letters))

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


class Position(namedtuple("Position", ("index", "block"))):
    """One indexed block occurrence of a marked expression: its ``index``
    and its ``block``, a `BlockSymbol`.  A tuple, so hashing, equality and
    ordering (index, then block) run in C."""

    __slots__ = ()

    def drop(self) -> BlockSymbol:
        return self.block

    def state_name(self) -> str:
        return f"{self.block.letters}_{self.index}"

    def pretty(self) -> str:
        return f"{self.block.pretty()}_{self.index}"

    __str__ = pretty


class _Record:
    """Base class of the package's immutable values.  ``_fields`` names the
    fields in constructor order.  A subclass holds them in slots, declared
    as ``__slots__ = _fields``, and its ``__init__`` writes them through
    the slot setters that `_slot_setters` lists, past the refusing
    ``__setattr__``; one that keeps values derived on first use holds its
    fields in its instance dict instead.  Records of one class are equal,
    and hash alike, when their fields are; the repr lists the fields by
    name."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return _repr(self, self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Copies and pickles go through the constructor, not past __setattr__.
        return type(self), self._values()


def _repr(record: _Record, names: tuple) -> str:
    """A frozenset, as a field or a dict field's value, lists its members'
    reprs sorted, so equal records print alike under every hash seed."""
    fields = []
    for name in names:
        value = getattr(record, name)
        if isinstance(value, dict):
            text = ", ".join(f"{key!r}: {_sorted_repr(v)}" for key, v in value.items())
            fields.append(f"{name}={{{text}}}")
        else:
            fields.append(f"{name}={_sorted_repr(value)}")
    return f"{type(record).__name__}({', '.join(fields)})"


def _sorted_repr(value) -> str:
    if type(value) is frozenset and value:
        return f"frozenset({{{', '.join(sorted(map(repr, value)))}}})"
    return repr(value)


def _slot_setters(cls: type) -> list:
    """The ``__set__`` of each of the class's field slots, in ``_fields`` order."""
    return [getattr(cls, name).__set__ for name in cls._fields]


class RegexAst(_Record):
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

    def __repr__(self) -> str:
        # The fields by name, as `_Record` prints them, from an explicit
        # stack of nodes and closing texts, so any depth prints.
        out: list = []
        todo: list = [self]
        while todo:
            node = todo.pop()
            cls = type(node)
            if cls is str:
                out.append(node)
            elif cls is Literal:
                out.append(f"Literal(symbol={node.symbol!r})")
            elif cls is Union or cls is Concat:
                out.append(f"{cls.__name__}(left=")
                todo += (")", node.right, ", right=", node.left)
            elif cls is Star:
                out.append("Star(child=")
                todo += (")", node.child)
            else:
                out.append(f"{cls.__name__}()")
        return "".join(out)

    def __reduce__(self) -> tuple:
        # Copies and pickles carry the flat `_postfix` list, so any depth
        # copies.
        return _from_postfix, (_postfix(self),)


class Empty(RegexAst):
    __slots__ = ()


class Epsilon(RegexAst):
    __slots__ = ()


class Literal(RegexAst):
    # BlockSymbol in plain expressions; Position / ExpandedSymbol in derived ones.
    __slots__ = _fields = ("symbol",)

    def __init__(self, symbol):
        _set_symbol(self, symbol)


class _Binary(RegexAst):
    """The fields of `Union` and `Concat`; not a node itself."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: RegexAst, right: RegexAst):
        _set_left(self, left)
        _set_right(self, right)


class Union(_Binary):
    __slots__ = ()


class Concat(_Binary):
    __slots__ = ()


class Star(RegexAst):
    __slots__ = _fields = ("child",)

    def __init__(self, child: RegexAst):
        _set_child(self, child)


(_set_symbol,) = _slot_setters(Literal)
_set_left, _set_right = _slot_setters(_Binary)
(_set_child,) = _slot_setters(Star)


def fold(ast: RegexAst, leaf, union, concat, star):
    """Post-order fold of an expression without recursion: ``leaf(node)`` on
    `empty`, `eps` and literals, left to right; ``union(left, right)``,
    ``concat(left, right)`` and ``star(child)`` on the values of each inner
    node's children."""
    values: list = []
    todo: list = [ast]  # nodes to visit, and node classes marking a combine step
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is Literal:
            values.append(leaf(node))
        elif cls is type:  # a node class: combine the values on top
            if node is Star:
                values[-1] = star(values[-1])
            else:
                right = values.pop()
                values[-1] = (union if node is Union else concat)(values[-1], right)
        elif cls is Concat or cls is Union:
            todo += (cls, node.right, node.left)
        elif cls is Star:
            todo += (Star, node.child)
        elif cls is Epsilon or cls is Empty:
            values.append(leaf(node))
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return values[0]


def _leaves(ast: RegexAst) -> Iterator[RegexAst]:
    """The leaves of an expression (`empty`, `eps` and literals), left to
    right, without recursion."""
    todo: list = [ast]
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is Literal or cls is Epsilon or cls is Empty:
            yield node
        elif cls is Union or cls is Concat:
            todo += (node.right, node.left)
        elif cls is Star:
            todo.append(node.child)
        else:
            raise TypeError(f"not an expression node: {node!r}")


def _postfix(ast: RegexAst) -> list:
    """The expression in postfix order, which determines it: each literal's
    symbol, and the class of every other node after its children's."""
    out: list = []
    leaf = lambda node: out.append(node.symbol if type(node) is Literal else type(node))
    inner = lambda cls: lambda *_: out.append(cls)
    fold(ast, leaf, inner(Union), inner(Concat), inner(Star))
    return out


def _from_postfix(items: list) -> RegexAst:
    """The expression whose `_postfix` list ``items`` is: one stack loop."""
    stack: list = []
    for item in items:
        if item is Union or item is Concat:
            right = stack.pop()
            stack[-1] = item(stack[-1], right)
        elif item is Star:
            stack[-1] = Star(stack[-1])
        elif item is Epsilon or item is Empty:
            stack.append(item())
        else:
            stack.append(Literal(item))
    return stack[0]


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
    symbols: dict = {}  # token text -> its BlockSymbol, one per distinct text
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
            symbol = symbols.get(value)
            if symbol is None:
                symbol = symbols[value] = BlockSymbol(value)
            node = Literal(symbol)
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


class _Piece(str):
    """Text on `to_text`'s work stack, told apart from operands by its type."""

    __slots__ = ()


_OPEN, _CLOSE, _PLUS, _STAR = map(_Piece, "()+*")
_SEAM = _Piece()  # the seam before a concatenation's right operand


def to_text(ast: RegexAst) -> str:
    """Render to concrete syntax (round-trips through parse for plain ASTs).

    One walk writes the text left to right, as a list of non-empty pieces
    joined once at the end, and puts an operand in parentheses where it
    binds looser than its place needs: the right operand of a union when
    it is a union, the left operand of a concatenation when it is a union,
    and the right operand of a concatenation or the child of a star when
    it is either.  So each node is written once, however its chains nest.
    An operand that is no expression node raises `TypeError`."""
    out: list[str] = []
    todo: list = [ast]  # nodes to write and pieces to append, the next last
    while todo:
        item = todo.pop()
        cls = type(item)
        if cls is _Piece:
            if item:
                out.append(item)
            # At the seam every piece so far is non-empty, so the last four
            # hold the last four characters, which are all `_needs_dot` reads.
            elif _needs_dot("".join(out[-4:]), _head(todo[-1])):
                out.append(".")
        elif cls is Concat:
            left, right = item.left, item.right
            if type(right) is Union or type(right) is Concat:
                todo += (_CLOSE, right, _OPEN)
            else:  # the seam is checked once the left operand is written
                todo += (right, _SEAM)
            todo += (_CLOSE, left, _OPEN) if type(left) is Union else (left,)
        elif cls is Union:
            right = item.right
            todo += (_CLOSE, right, _OPEN, _PLUS) if type(right) is Union else (right, _PLUS)
            todo.append(item.left)
        elif cls is Star:
            child = item.child
            if type(child) is Union or type(child) is Concat:
                todo += (_STAR, _CLOSE, child, _OPEN)
            else:
                todo += (_STAR, child)
        else:
            out.append(_leaf_text(item))
    return "".join(out)


def _head(node: RegexAst) -> str:
    """The start of the node's text, as far as `_needs_dot` needs it: the
    text of its leftmost leaf when only stars lie above that leaf, which
    the stars follow, else ``(``."""
    while type(node) is Star:
        node = node.child
    return "(" if type(node) is Union or type(node) is Concat else _leaf_text(node)


def _leaf_text(leaf: RegexAst) -> str:
    """The text of a leaf; `TypeError` for what is no expression node."""
    if type(leaf) is Literal:
        return str(leaf.symbol)
    if type(leaf) is Epsilon:
        return "eps"
    if type(leaf) is Empty:
        return "empty"
    raise TypeError(f"not an expression node: {leaf!r}")


def _needs_dot(left: str, right: str) -> bool:
    """Whether juxtaposing the two texts would create an `eps`/`empty`
    keyword across the seam, so that they need the explicit concatenation
    dot.  A keyword has at most five letters, so four on each side decide."""
    left = left[-4:]
    joined = left + right[:4]
    cut = len(left)
    for kw in KEYWORDS:
        for start in range(max(0, cut - len(kw) + 1), cut):
            if joined.startswith(kw, start):
                return True
    return False


# --- marking and dropping ---------------------------------------------------


class MarkedExpression(_Record):
    """An expression whose literal occurrences carry unique indices: the
    tree it was marked from and its positions, leaf i, left to right,
    being position i.  ``ast``, the tree with each literal's symbol
    replaced by its position, is built on first read and kept.  Equal, and
    hashing alike, when their ``ast`` and positions are."""

    _fields = ("tree", "positions")

    def __init__(self, tree: RegexAst, positions):
        positions = tuple(positions)
        leaves = sum(1 for _ in literal_symbols(tree))
        if leaves != len(positions):
            raise ValueError(f"the tree has {leaves} literals but {len(positions)} positions")
        self.__dict__.update(tree=tree, positions=positions)

    @cached_property
    def ast(self) -> RegexAst:
        return _relabel(self.tree, self.positions)

    def _key(self) -> list:
        """`_postfix` of ``ast``, read from the tree and the positions."""
        symbols = iter(self.positions)
        return [s if isinstance(s, type) else next(symbols) for s in _postfix(self.tree)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkedExpression):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(tuple(self._key()))


def _marked(tree: RegexAst, positions: tuple, **derived) -> MarkedExpression:
    """A `MarkedExpression` from parts its caller made agree, without the
    leaf count; ``derived`` presets values such as ``ast``."""
    marked = object.__new__(MarkedExpression)
    marked.__dict__.update(tree=tree, positions=positions, **derived)
    return marked


def _relabel(tree: RegexAst, symbols) -> RegexAst:
    """The tree with its literals' symbols replaced, left to right, by ``symbols``."""
    symbols = iter(symbols)
    leaf = lambda node: Literal(next(symbols)) if type(node) is Literal else node
    return fold(tree, leaf, Union, Concat, Star)


def literal_symbols(ast: RegexAst) -> Iterator:
    """Leaf symbols in left-to-right order."""
    return (node.symbol for node in _leaves(ast) if type(node) is Literal)


def width(ast: RegexAst) -> int:
    """Largest block width occurring in the expression (0 if none)."""
    return max((sym.drop().width for sym in literal_symbols(ast)), default=0)


def is_trimmed(ast: RegexAst) -> bool:
    """True iff the expression is `empty` itself or contains no `empty` node."""
    return type(ast) is Empty or not any(type(node) is Empty for node in _leaves(ast))


def mark(ast: RegexAst) -> MarkedExpression:
    """Index block occurrences 1..n left to right: one walk over the leaves
    that checks them and makes the positions; no tree is built."""
    if type(ast) is Empty:
        return _marked(ast, ())
    new = tuple.__new__  # Position's own constructor costs half as much again
    acc: list[Position] = []
    for node in _leaves(ast):
        cls = type(node)
        if cls is Literal:
            symbol = node.symbol
            if not isinstance(symbol, BlockSymbol):
                raise ValueError("expression is already marked")
            acc.append(new(Position, (len(acc) + 1, symbol)))
        elif cls is Empty:
            raise ValueError("expression is not trimmed: `empty` occurs as a subterm")
    return _marked(ast, tuple(acc))


def drop(value: MarkedExpression | RegexAst) -> RegexAst:
    """Remove indices (and flatten expanded letters) back to a plain expression."""
    if isinstance(value, MarkedExpression):
        return _relabel(value.tree, [p.drop() for p in value.positions])
    leaf = lambda node: Literal(node.symbol.drop()) if type(node) is Literal else node
    return fold(value, leaf, Union, Concat, Star)


# --- position functions ------------------------------------------------------


class PositionTable(_Record):
    """Null/First/Last/Follow of a marked expression."""

    __slots__ = _fields = ("nullable", "first", "last", "follow")

    def __init__(self, nullable: bool, first: frozenset, last: frozenset, follow: Mapping):
        _set_nullable(self, nullable)
        _set_first(self, first)
        _set_last(self, last)
        _set_follow(self, follow)


_set_nullable, _set_first, _set_last, _set_follow = _slot_setters(PositionTable)


def positions(marked: MarkedExpression | RegexAst) -> PositionTable:
    """Compute the position functions by structural induction.  A marked
    expression is read as its tree with leaf i standing for position i, so
    its ``ast`` is not built."""
    if isinstance(marked, MarkedExpression):
        tree, symbols = marked.tree, iter(marked.positions)
    else:
        tree, symbols = marked, None
    follow: dict = {}

    def leaf(node: RegexAst) -> tuple[bool, set, set]:
        if type(node) is Literal:
            x = node.symbol if symbols is None else next(symbols)
            if x in follow:
                raise ValueError(f"symbol occurs twice, input is not marked: {x}")
            follow[x] = set()
            return False, {x}, {x}
        return type(node) is Epsilon, set(), set()

    # First and Last sets belong to their node's value alone, so a parent
    # merges its children's into the larger one instead of copying both.
    def union(left, right):
        (nl, fl, ll), (nr, fr, lr) = left, right
        return nl or nr, _merge(fl, fr), _merge(ll, lr)

    def concat(left, right):
        (nl, fl, ll), (nr, fr, lr) = left, right
        for x in ll:
            follow[x] |= fr
        return nl and nr, _merge(fl, fr) if nl else fl, _merge(lr, ll) if nr else lr

    def star(child):
        _, f, l = child
        for x in l:
            follow[x] |= f
        return True, f, l

    nullable, first, last = fold(tree, leaf, union, concat, star)
    return PositionTable(
        nullable,
        frozenset(first),
        frozenset(last),
        # Each set is dropped as it is frozen, so the table is never held twice.
        {x: frozenset(follow.pop(x)) for x in list(follow)},
    )


def _merge(a: set, b: set) -> set:
    """The union of two sets that no one else holds, made in the larger."""
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a


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
        try:
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
        except KeyError as exc:
            raise ValueError(f"expression JSON {kind!r} node has no {exc.args[0]!r} field") from None
    return built[0]
