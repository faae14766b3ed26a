"""State elimination on block automata and the block-to-letter expression
transform (phi/chi) with its block-complete word predicate."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import total_ordering

from .automaton import BlockAutomaton, Transition, _trusted, postorder
from .syntax import (
    BlockSymbol,
    Concat,
    Literal,
    MarkedExpression,
    Position,
    RegexAst,
    Star,
    Union,
    _marked,
    _Record,
    _slot_setters,
    fold,
)


# --- state elimination ------------------------------------------------------------


def eliminable(a: BlockAutomaton, state: str) -> bool:
    """A state can be eliminated iff it is neither initial nor final and has
    no self-loop."""
    if state not in a.states:
        raise ValueError(f"unknown state: {state}")
    if state in a.initials or state in a.finals:
        return False
    return all(t.target != state for t in a.out_edges[state])


def eliminate(a: BlockAutomaton, state: str) -> BlockAutomaton:
    """Remove the state, bypassing it with concatenated labels for every
    in/out transition pair (self-loops on neighbours included)."""
    if not eliminable(a, state):
        raise ValueError(f"state {state!r} is initial, final or has a self-loop")
    incoming = a.in_edges[state]
    outgoing = a.out_edges[state]
    kept = set(a.transitions).difference(incoming, outgoing)
    # Two blocks concatenated are a block: the label and the Transition are
    # built past their constructors' checks.
    new, block = tuple.__new__, str.__new__
    for i in incoming:
        for o in outgoing:
            kept.add(new(Transition, (i.source, block(BlockSymbol, i.label + o.label), o.target)))
    return _trusted(a.states - {state}, a.initials, a.finals, kept)


def eliminate_set(a: BlockAutomaton, states: Iterable[str]) -> BlockAutomaton:
    """Eliminate a set of states whose induced subgraph is acyclic; the result
    does not depend on the elimination order (eliminations run in ascending
    state-name order)."""
    todo = sorted(set(states))
    for q in todo:
        if not eliminable(a, q):
            raise ValueError(f"state {q!r} is initial, final or has a self-loop")
    if _induced_cycle(a, set(todo)):
        raise ValueError("the induced subgraph has a cycle")
    for q in todo:
        a = eliminate(a, q)
    return a


def _induced_cycle(a: BlockAutomaton, subset: set) -> bool:
    edges = a.out_edges

    def successors(q):
        return [t.target for t in edges[q] if t.target in subset and t.target != q]

    return postorder(subset, successors) is None


# --- the letter expansion of blocks -------------------------------------------------


@total_ordering
class ExpandedSymbol(_Record):
    """One letter of one indexed block: letter w[offset] of block number
    block_index (offsets start at 1).  Ordered by (letter, block_index,
    offset) among themselves."""

    __slots__ = _fields = ("letter", "block_index", "offset")

    def __init__(self, letter: str, block_index: int, offset: int):
        _set_letter(self, letter)
        _set_block_index(self, block_index)
        _set_offset(self, offset)

    def __lt__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() < other._values()

    def drop(self) -> BlockSymbol:
        return BlockSymbol(self.letter)

    def pretty(self) -> str:
        return f"{self.letter}@{self.block_index}.{self.offset}"

    __str__ = pretty


_set_letter, _set_block_index, _set_offset = _slot_setters(ExpandedSymbol)


def phi(position: Position) -> tuple[ExpandedSymbol, ...]:
    """Expand an indexed block into its annotated letters."""
    return tuple(
        ExpandedSymbol(letter, position.index, offset + 1)
        for offset, letter in enumerate(position.block.letters)
    )


def phi_inverse(word: Sequence[ExpandedSymbol]) -> Position:
    """Rebuild the indexed block from a simple block-complete word."""
    symbols = tuple(word)
    if not symbols:
        raise ValueError("phi_inverse needs a non-empty word")
    index = symbols[0].block_index
    for offset, sym in enumerate(symbols, start=1):
        if sym.block_index != index or sym.offset != offset:
            raise ValueError(f"not the expansion of a single block: {symbols}")
    return Position(index, BlockSymbol("".join(s.letter for s in symbols)))


def chi(marked: MarkedExpression) -> MarkedExpression:
    """Replace every indexed block by the concatenation of its expanded
    letters, turning a marked block expression into a marked plain one,
    whose tree's literals already carry their expanded letters."""
    acc: list[ExpandedSymbol] = []
    positions = iter(marked.positions)

    def leaf(node: RegexAst) -> RegexAst:
        if type(node) is not Literal:
            return node
        position = next(positions)
        if not isinstance(position, Position):
            raise ValueError("chi needs a marked block expression")
        symbols = phi(position)
        acc.extend(symbols)
        out: RegexAst = Literal(symbols[0])
        for sym in symbols[1:]:
            out = Concat(out, Literal(sym))
        return out

    ast = fold(marked.tree, leaf, Union, Concat, Star)
    return _marked(ast, tuple(acc), ast=ast)


def block_lengths(marked: MarkedExpression) -> dict:
    """Block width per position index of a marked block expression."""
    return {p.index: p.block.width for p in marked.positions}


def is_block_complete(word: Sequence[ExpandedSymbol], marked: MarkedExpression) -> bool:
    """True iff the word tiles exactly into whole block expansions: it starts
    at offset 1, ends at its block's last offset, consecutive offsets stay in
    the same block, and offset resets happen only at block boundaries."""
    lengths = block_lengths(marked)
    symbols = tuple(word)
    for sym in symbols:
        if sym.block_index not in lengths or not 1 <= sym.offset <= lengths[sym.block_index]:
            raise ValueError(f"symbol {sym} does not belong to the expression")
    if not symbols:
        return True
    if symbols[0].offset != 1:
        return False
    last = symbols[-1]
    if last.offset != lengths[last.block_index]:
        return False
    for current, nxt in zip(symbols, symbols[1:]):
        if nxt.offset == current.offset + 1:
            if nxt.block_index != current.block_index:
                return False
        else:
            if current.offset != lengths[current.block_index] or nxt.offset != 1:
                return False
    return True
