"""Block automata and their core algebra.

Transition labels are blocks (non-empty words over the base alphabet); plain
automata are the width-1 case.  Automata are kept partial and trimmed: there
is no sink completion, and derived operations normalise the alphabet to the
labels actually used.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Mapping, NamedTuple

from .syntax import BlockSymbol


class Transition(NamedTuple):
    """An edge; a tuple, so hashing, equality and ordering (source, then
    label, then target) run in C."""

    source: str
    label: BlockSymbol
    target: str

    def __str__(self) -> str:
        return f"{self.source} -{self.label.letters}-> {self.target}"


@dataclass(frozen=True)
class BlockAutomaton:
    alphabet: frozenset
    states: frozenset
    initials: frozenset
    finals: frozenset
    transitions: frozenset

    def __post_init__(self):
        if not self.initials <= self.states:
            raise ValueError("initial states must be states")
        if not self.finals <= self.states:
            raise ValueError("final states must be states")
        for t in self.transitions:
            if t.source not in self.states or t.target not in self.states:
                raise ValueError(f"transition endpoints must be states: {t}")
            if t.label not in self.alphabet:
                raise ValueError(f"transition label not in the alphabet: {t}")

    @classmethod
    def make(
        cls,
        states: Iterable[str] = (),
        initials: Iterable[str] = (),
        finals: Iterable[str] = (),
        transitions: Iterable = (),
        alphabet: Iterable | None = None,
    ) -> "BlockAutomaton":
        """Build an automaton, coercing (source, label, target) triples."""
        coerced = frozenset(map(_coerce_transition, transitions))
        used = frozenset(t.label for t in coerced)
        if alphabet is None:
            full = used
        else:
            full = frozenset(
                b if isinstance(b, BlockSymbol) else BlockSymbol(b) for b in alphabet
            ) | used
        return cls(full, frozenset(states), frozenset(initials), frozenset(finals), coerced)

    @property
    def width(self) -> int:
        return max((b.width for b in self.alphabet), default=0)

    def sorted_transitions(self) -> list[Transition]:
        return sorted(self.transitions)

    # The per-state edge index: built on first use and kept with the
    # automaton, so every walk over one automaton shares it.  Read-only.
    # Lists follow the iteration order of the transition set, which varies
    # with the hash seed: sort a state's group where its order reaches output.

    @cached_property
    def out_edges(self) -> dict[str, list[Transition]]:
        """Map every state to the transitions leaving it."""
        out: dict = {q: [] for q in self.states}
        for t in self.transitions:
            out[t.source].append(t)
        return out

    @cached_property
    def in_edges(self) -> dict[str, list[Transition]]:
        """Map every state to the transitions entering it."""
        into: dict = {q: [] for q in self.states}
        for t in self.transitions:
            into[t.target].append(t)
        return into


def _trusted(states, initials, finals, transitions) -> BlockAutomaton:
    """Build an automaton from parts its caller made valid: `Transition`s
    with `BlockSymbol` labels between its states.  Skips the coercion of
    `make` and the checks of `__post_init__`; the alphabet is the labels
    used.  The package's own producers build through here; input from
    outside goes through `make`."""
    # Filled one by one, as `make` fills it: a copy of a set is sized from
    # the set's count, which for some counts doubles the table (4,800
    # transitions: 256 kB instead of 128 kB).
    transitions = frozenset(iter(transitions))
    a = object.__new__(BlockAutomaton)
    a.__dict__.update(
        alphabet=frozenset([t.label for t in transitions]),
        states=frozenset(states),
        initials=frozenset(initials),
        finals=frozenset(finals),
        transitions=transitions,
    )
    return a


def _coerce_transition(t) -> Transition:
    if isinstance(t, Transition):
        return t
    source, label, target = t
    if not isinstance(label, BlockSymbol):
        label = BlockSymbol(label)
    return Transition(source, label, target)


EMPTY_AUTOMATON = BlockAutomaton.make()


def fresh_name(taken: Container[str], base: str) -> str:
    """Return ``base`` primed until it avoids every name in ``taken``."""
    name = base
    while name in taken:
        name += "'"
    return name


# --- acceptance and enumeration ----------------------------------------------


def accepts(a: BlockAutomaton, word: str) -> bool:
    """True iff the word factors into transition labels along an accepting
    path: one walk over (state, letters read) pairs."""
    edges = a.out_edges
    seen = {(q, 0) for q in a.initials}
    agenda = list(seen)
    while agenda:
        state, pos = agenda.pop()
        for t in edges[state]:
            if word.startswith(t.label, pos):
                step = (t.target, pos + len(t.label))
                if step not in seen:
                    seen.add(step)
                    agenda.append(step)
    return any((q, len(word)) in seen for q in a.finals)


def enumerate_words(a: BlockAutomaton, maxlen: int) -> list[str]:
    """Accepted words over the base alphabet up to ``maxlen`` letters,
    in length-then-lexicographic order."""
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    flat = expand_blocks(a)
    edges = flat.out_edges
    out: list[str] = []
    level: dict[str, set] = {"": set(flat.initials)}
    for _ in range(maxlen + 1):
        for word in sorted(level):
            if level[word] & flat.finals:
                out.append(word)
        nxt: dict[str, set] = defaultdict(set)
        for word, reached in level.items():
            for q in reached:  # one scan per state; word + letter keys the group
                for t in edges[q]:
                    nxt[word + t.label.letters].add(t.target)
        level = nxt
        if not level:
            break
    return out


# --- trimming, standardization, expansion --------------------------------------


def trim(a: BlockAutomaton) -> BlockAutomaton:
    """Drop states that are not both accessible and co-accessible."""
    forward = _reachable(a.out_edges, a.initials)
    backward = _reachable(a.in_edges, a.finals, reverse=True)
    keep = forward & backward
    if len(keep) == len(a.states) and len({t.label for t in a.transitions}) == len(a.alphabet):
        return a
    return _trusted(
        keep,
        a.initials & keep,
        a.finals & keep,
        [t for t in a.transitions if t.source in keep and t.target in keep],
    )


def _reachable(edges: dict, seeds: Iterable[str], reverse: bool = False) -> set:
    """States reached from the seeds along an out_edges index, or backwards
    along an in_edges index."""
    seen = set(seeds)
    agenda = list(seen)
    while agenda:
        for t in edges[agenda.pop()]:
            nxt = t.source if reverse else t.target
            if nxt not in seen:
                seen.add(nxt)
                agenda.append(nxt)
    return seen


def postorder(roots: Iterable, successors) -> list | None:
    """Every node reachable from the roots, each listed after all of its
    successors, or None when a cycle is reachable.  An iterative depth-first
    search that calls ``successors(node)`` once per node."""
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


def standardize(a: BlockAutomaton) -> BlockAutomaton:
    """Give the automaton a single initial state without incoming transitions.

    Follows the textbook construction: a fresh initial copies every transition
    leaving an old initial state, and is final iff some old initial was.
    States made unreachable are dropped.
    """
    start = fresh_name(a.states, "i'")
    edges = a.out_edges
    copied = {Transition(start, t.label, t.target) for q in a.initials for t in edges[q]}
    finals = set(a.finals)
    if a.initials & a.finals:
        finals.add(start)
    reachable = _reachable(edges, {t.target for t in copied}) | {start}
    return _trusted(
        reachable,
        {start},
        {q for q in finals if q in reachable},
        [t for t in a.transitions | copied if t.source in reachable],
    )


def expand_blocks(a: BlockAutomaton) -> BlockAutomaton:
    """Replace every block transition by a chain of width-1 transitions.

    Chains are shared: each fresh state is keyed on the letters it has
    still to read and the target it then enters, and has no other edge,
    so its language is that suffix followed by the target's.  A chain
    links into an existing state as soon as its next key is taken.  On a
    Glushkov automaton every transition into a position carries that
    position's block, so each position gets one chain and the result is
    linear in the expression.  Transitions are walked in sorted order, and
    fresh states are named ``@0``, ``@1``, ... in first-use order.
    """
    if a.width <= 1:
        return a
    states = set(a.states)
    symbols = {c: BlockSymbol(c) for b in a.alphabet for c in b}
    chains: dict[tuple[str, str], str] = {}
    transitions: list[Transition] = []
    for t in a.sorted_transitions():
        letters = t.label  # a str: slices and letters are plain strs
        source = t.source
        for offset in range(1, len(letters)):
            key = (letters[offset:], t.target)
            shared = chains.get(key)
            if shared is not None:
                transitions.append(Transition(source, symbols[letters[offset - 1]], shared))
                break
            fresh = chains[key] = fresh_name(states, f"@{len(chains)}")
            states.add(fresh)
            transitions.append(Transition(source, symbols[letters[offset - 1]], fresh))
            source = fresh
        else:
            transitions.append(Transition(source, symbols[letters[-1]], t.target))
    return _trusted(states, a.initials, a.finals, transitions)


# --- determinization and minimization -------------------------------------------


def is_deterministic(a: BlockAutomaton) -> bool:
    """Single initial state and at most one transition per (state, label)."""
    return len(a.initials) == 1 and all(
        len(row) == len({t.label for t in row}) for row in a.out_edges.values()
    )


def determinize(a: BlockAutomaton) -> BlockAutomaton:
    """Subset construction; result is deterministic and trimmed.

    On deterministic input every subset is a singleton named after its
    member, so the construction would give `trim(a)`, which is returned.
    """
    if a.width > 1:
        raise ValueError("determinize expects a width-1 automaton; expand blocks first")
    if is_deterministic(a):
        return trim(a)
    if not a.initials:
        return EMPTY_AUTOMATON
    edges = a.out_edges
    start = frozenset(a.initials)
    subsets = [start]
    seen = {start}
    moves: list[tuple[frozenset, BlockSymbol, frozenset]] = []
    agenda = deque([start])
    while agenda:
        subset = agenda.popleft()
        steps = _subset_steps(edges, subset)
        for letter in sorted(steps):
            targets = steps[letter]
            moves.append((subset, letter, targets))
            if targets not in seen:
                seen.add(targets)
                subsets.append(targets)
                agenda.append(targets)
    names = _name_groups(subsets)
    det = _trusted(
        names.values(),
        [names[start]],
        [names[s] for s in subsets if s & a.finals],
        [Transition(names[s], letter, names[t]) for s, letter, t in moves],
    )
    return trim(det)


def _subset_steps(edges: dict, subset: Iterable[str]) -> dict:
    """Map each label leaving the subset to the frozenset of its targets."""
    by_label: dict = {}
    for q in subset:
        for t in edges[q]:
            by_label.setdefault(t.label, []).append(t.target)
    return {label: frozenset(targets) for label, targets in by_label.items()}


def _name_groups(groups: Iterable[frozenset]) -> dict:
    """Name each state group: bare member name for singletons, {a,b} otherwise."""
    names: dict = {}
    taken: set[str] = set()
    for group in groups:
        members = sorted(group)
        base = members[0] if len(members) == 1 else "{" + ",".join(members) + "}"
        name = fresh_name(taken, base)
        taken.add(name)
        names[group] = name
    return names


def minimize(a: BlockAutomaton) -> BlockAutomaton:
    """Merge states with equal right languages (partial-DFA Moore refinement).

    Missing transitions are kept missing, so they distinguish states from
    looping ones; the result is the unique minimal trimmed partial DFA.
    """
    if not is_deterministic(a) and a.states:
        raise ValueError("minimize expects a deterministic automaton")
    a = trim(a)
    if not a.states:
        return a
    edges = a.out_edges
    rename = _quotient([(q, q in a.finals, edges[q]) for q in sorted(a.states)])
    return _trusted(
        rename.values(),
        [rename[q] for q in a.initials],
        [rename[q] for q in a.finals],
        [Transition(rename[t.source], t.label, rename[t.target]) for t in a.transitions],
    )


def _quotient(rows: list) -> dict:
    """Moore refinement of a partial DFA given as ``(state, final, out-edges)``
    rows in sorted state order, every edge target among the rows' states:
    map each state to the name of its class of equal right languages.
    Classes are named by `_name_groups` in the order of their least member,
    so primed names do not follow the hash seed.  The initial states are
    not read."""
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
    groups: dict[int, list] = {}
    for q, _, _ in rows:
        groups.setdefault(refined[q], []).append(q)
    frozen = [frozenset(g) for g in groups.values()]
    names = _name_groups(frozen)
    return {q: names[group] for group in frozen for q in group}


# --- isomorphism and equivalence --------------------------------------------------


def isomorphic(a: BlockAutomaton, b: BlockAutomaton) -> bool:
    """Label-respecting bijection test for deterministic trimmed automata,
    via canonical breadth-first numbering from the initial state."""
    return _canonical(a) == _canonical(b)


def _canonical(a: BlockAutomaton):
    a = trim(a)
    if not a.states:
        return (0, frozenset(), frozenset())
    if not is_deterministic(a):
        raise ValueError("isomorphic expects deterministic automata")
    edges = a.out_edges
    (initial,) = a.initials
    number = {initial: 0}
    order = deque([initial])
    while order:
        q = order.popleft()
        for t in sorted(edges[q], key=lambda t: t.label):
            if t.target not in number:
                number[t.target] = len(number)
                order.append(t.target)
    transitions = frozenset(
        (number[t.source], t.label, number[t.target]) for t in a.transitions
    )
    finals = frozenset(number[q] for q in a.finals)
    return (len(a.states), finals, transitions)


def equivalent(a: BlockAutomaton, b: BlockAutomaton) -> bool:
    """Language equality over the base alphabet."""
    return distinguishing_word(a, b) is None


_NO_STATES: frozenset = frozenset()


def distinguishing_word(a: BlockAutomaton, b: BlockAutomaton) -> str | None:
    """A shortest word over the base alphabet that exactly one of the two
    automata accepts, or None when their languages are equal.

    Hopcroft and Karp's equivalence test on lazily built subsets of both
    expanded automata: a breadth-first walk over pairs of subsets, letters
    in sorted order, with the empty subset standing for the missing sink.
    A union-find over the subsets of both sides skips every pair already
    known to be equal; a pair that is not equal is distinguished no later
    than the pairs it is chained to, so the walk still meets a shortest
    word first.  Queued pairs link to their parent and letter, and only
    the answer is spelled out.
    """
    left, right = expand_blocks(a), expand_blocks(b)
    left_edges, right_edges = left.out_edges, right.out_edges
    leader: dict = {}

    def find(node):
        root = node
        while leader.get(root, root) != root:
            root = leader[root]
        while node != root:
            leader[node], node = root, leader[node]
        return root

    def merge(x: frozenset, y: frozenset) -> bool:
        """Join the classes of x (left) and y (right); False if one already."""
        rx, ry = find((0, x)), find((1, y))
        if rx == ry:
            return False
        leader[rx] = ry
        return True

    # A queued pair is (left subset, right subset, parent pair, letter).
    start = (frozenset(left.initials), frozenset(right.initials), None, "")
    merge(start[0], start[1])
    agenda = deque([start])
    while agenda:
        pair = agenda.popleft()
        x, y = pair[0], pair[1]
        if left.finals.isdisjoint(x) != right.finals.isdisjoint(y):
            letters = []
            while pair[2] is not None:
                letters.append(pair[3])
                pair = pair[2]
            return "".join(reversed(letters))
        x_steps = _subset_steps(left_edges, x)
        y_steps = _subset_steps(right_edges, y)
        for label in sorted(x_steps.keys() | y_steps.keys()):
            x_next = x_steps.get(label, _NO_STATES)
            y_next = y_steps.get(label, _NO_STATES)
            if merge(x_next, y_next):
                agenda.append((x_next, y_next, pair, label.letters))
    return None


# --- serialization -----------------------------------------------------------------


def to_json(a: BlockAutomaton) -> dict:
    return {
        "alphabet": sorted(b.letters for b in a.alphabet),
        "states": sorted(a.states),
        "initials": sorted(a.initials),
        "finals": sorted(a.finals),
        "transitions": [transition_to_json(t) for t in a.sorted_transitions()],
    }


def transition_to_json(t: Transition) -> dict:
    return {"from": t.source, "label": t.label.letters, "to": t.target}


def from_json(data: Mapping) -> BlockAutomaton:
    try:
        return BlockAutomaton.make(
            states=[str(q) for q in data["states"]],
            initials=[str(q) for q in data["initials"]],
            finals=[str(q) for q in data["finals"]],
            transitions=[
                (str(t["from"]), str(t["label"]), str(t["to"]))
                for t in data["transitions"]
            ],
            alphabet=[str(b) for b in data.get("alphabet", ())],
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed automaton JSON: {exc}") from exc


def to_dot(a: BlockAutomaton) -> str:
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for q in sorted(a.states):
        shape = "doublecircle" if q in a.finals else "circle"
        lines.append(f'  "{q}" [shape={shape}];')
    for n, q in enumerate(sorted(a.initials)):
        lines.append(f'  "__start{n}" [shape=point, style=invis];')
        lines.append(f'  "__start{n}" -> "{q}";')
    for t in a.sorted_transitions():
        lines.append(f'  "{t.source}" -> "{t.target}" [label="{t.label.letters}"];')
    lines.append("}")
    return "\n".join(lines)
