"""The Glushkov (position) automaton of a block regular expression."""

from __future__ import annotations

from collections.abc import Mapping

from .automaton import BlockAutomaton, Transition, _trusted, to_json
from .syntax import MarkedExpression, RegexAst, _Record, _slot_setters, mark, positions

INITIAL_STATE = "i"


class GlushkovAutomaton(_Record):
    """A position automaton together with its state -> position table."""

    __slots__ = _fields = ("automaton", "position_of_state")

    def __init__(self, automaton: BlockAutomaton, position_of_state: Mapping):
        _set_automaton(self, automaton)
        _set_position_of_state(self, position_of_state)


_set_automaton, _set_position_of_state = _slot_setters(GlushkovAutomaton)


def glushkov(expr: RegexAst | MarkedExpression) -> GlushkovAutomaton:
    """Build the position automaton: states are the positions plus a fresh
    initial, transitions follow First/Follow, finals are Last (and the
    initial when the expression is nullable)."""
    marked = expr if isinstance(expr, MarkedExpression) else mark(expr)
    table = positions(marked)
    # The text of `Position.state_name`, and `Transition`s built past their
    # own constructor, which costs half as much again, into a list that
    # `_trusted` freezes once.
    name = {p: p.block + "_" + str(p.index) for p in marked.positions}
    new = tuple.__new__
    states = {INITIAL_STATE, *name.values()}
    transitions = [new(Transition, (INITIAL_STATE, p.block, name[p])) for p in table.first]
    for source, followers in table.follow.items():
        source_name = name[source]
        transitions += [new(Transition, (source_name, p.block, name[p])) for p in followers]
    finals = {name[p] for p in table.last}
    if table.nullable:
        finals.add(INITIAL_STATE)
    automaton = _trusted(states, {INITIAL_STATE}, finals, transitions)
    return GlushkovAutomaton(automaton, {name[p]: p for p in marked.positions})


def check_glushkov_shape(a: BlockAutomaton) -> bool:
    """Necessary conditions for being a Glushkov automaton: standard (one
    initial, never re-entered) and homogeneous (a state is always entered
    with the same label)."""
    if len(a.initials) != 1:
        return False
    (initial,) = a.initials
    entering: dict = {}
    for t in a.transitions:
        if t.target == initial:
            return False
        if entering.setdefault(t.target, t.label) != t.label:
            return False
    return True


def alphabetic_image(a: BlockAutomaton, mapping: Mapping) -> BlockAutomaton:
    """Relabel transitions through an injection of the used alphabet."""
    missing = [b for b in a.alphabet if b not in mapping]
    if missing:
        raise ValueError(f"mapping is not defined on {sorted(missing)}")
    images = [mapping[b] for b in a.alphabet]
    if len(set(images)) != len(images):
        raise ValueError("mapping is not injective on the used alphabet")
    return BlockAutomaton.make(
        states=a.states,
        initials=a.initials,
        finals=a.finals,
        transitions={(t.source, mapping[t.label], t.target) for t in a.transitions},
    )


def glushkov_to_json(g: GlushkovAutomaton) -> dict:
    data = to_json(g.automaton)
    data["positions"] = {
        state: {"index": p.index, "block": p.block.letters}
        for state, p in sorted(g.position_of_state.items())
    }
    return data
