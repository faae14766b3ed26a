"""Block automata and their core algebra.

Transition labels are blocks (non-empty words over the base alphabet); plain
automata are the width-1 case.  Automata are kept partial and trimmed: there
is no sink completion, and the alphabet is the labels the transitions use.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Container, Iterable, Mapping
from functools import cached_property

from .syntax import BlockSymbol, _Record


class Transition(namedtuple("Transition", ("source", "label", "target"))):
    """An edge: a ``source`` and a ``target`` state and a `BlockSymbol`
    ``label``.  A tuple, so hashing, equality and ordering (source, then
    label, then target) run in C."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.source} -{self.label.letters}-> {self.target}"


class BlockAutomaton(_Record):
    """Four frozensets: the ``states`` (strings), the ``initials`` and
    ``finals`` among them, and the ``transitions`` (`Transition`s between
    them).  Equal, and hashing alike, by these four.  Unlike the other
    records it keeps an instance dict, which also holds what is derived
    from the four on first use."""

    _fields = ("states", "initials", "finals", "transitions")

    def __init__(
        self, states: frozenset, initials: frozenset, finals: frozenset, transitions: frozenset
    ):
        """Refuse parts that make no automaton, with `ValueError`."""
        if not initials <= states:
            raise ValueError("initial states must be states")
        if not finals <= states:
            raise ValueError("final states must be states")
        if not all(isinstance(q, str) for q in states):
            raise ValueError("state names must be strings")
        for t in transitions:
            if not (isinstance(t, Transition) and isinstance(t.label, BlockSymbol)):
                raise ValueError(f"a transition is a Transition with a BlockSymbol label: {t!r}")
            if t.source not in states or t.target not in states:
                raise ValueError(f"transition endpoints must be states: {t}")
        self.__dict__.update(
            states=states, initials=initials, finals=finals, transitions=transitions
        )

    @classmethod
    def make(
        cls,
        states: Iterable[str] = (),
        initials: Iterable[str] = (),
        finals: Iterable[str] = (),
        transitions: Iterable = (),
    ) -> "BlockAutomaton":
        """Build an automaton from (source, label, target) triples or
        `Transition`s: the one way in for outside input.  Each distinct
        label is made a `BlockSymbol` once; the constructor checks the rest."""
        if any(isinstance(x, str) for x in (states, initials, finals, transitions)):
            raise ValueError("states, initials, finals and transitions must not be strings")
        symbols: dict = {}
        new = tuple.__new__  # a Transition past its constructor; `__init__` checks it
        coerced = []
        for t in transitions:
            if isinstance(t, str):
                raise ValueError(f"a transition is a (source, label, target) triple, not a string: {t!r}")
            source, label, target = t
            symbol = symbols.get(label) if isinstance(label, str) else None
            if symbol is None:
                symbol = symbols[label] = BlockSymbol(label)  # refuses a label that is no string
            coerced.append(new(Transition, (source, symbol, target)))
        return cls(frozenset(states), frozenset(initials), frozenset(finals), frozenset(coerced))

    @property
    def width(self) -> int:
        return max((b.width for b in self.alphabet), default=0)

    # The alphabet, the per-state edge index and the lookahead depths: built
    # on first use and kept with the automaton, so every walk over one
    # automaton shares them.  Read-only.  States and each state's row are in
    # sorted order.

    @cached_property
    def alphabet(self) -> frozenset:
        """The labels the transitions use."""
        return frozenset([t.label for t in self.transitions])

    @cached_property
    def out_edges(self) -> dict[str, list[Transition]]:
        """Map every state to the transitions leaving it."""
        return _edge_table(self.states, self.transitions, 0)

    @cached_property
    def in_edges(self) -> dict[str, list[Transition]]:
        """Map every state to the transitions entering it."""
        return _edge_table(self.states, self.transitions, 2)

    @cached_property
    def group_depths(self) -> "array":
        """One depth per clash group (two or more same-label transitions
        leaving one state), in sorted order: the length of the longest label
        word that the targets of two of its transitions both read, or -1
        when two read common words of every length.  Defined on width-1
        automata.  Built by `blockdet.lookahead`: one tagged-subset walk per
        group under a shared work budget, or the pair walk over the group's
        own pairs once the budget runs out, which reads `out_edges` only."""
        from .lookahead import _group_depths  # here: lookahead imports this module

        return _group_depths(self)


def _edge_table(states, transitions, end: int) -> dict:
    """Map each state, in sorted order, to the transitions that have it at
    ``end`` (0: the source, 2: the target), in sorted order."""
    table: dict = {q: [] for q in sorted(states)}
    for t in transitions:
        table[t[end]].append(t)
    for row in table.values():
        row.sort()
    return table


def _trusted(states, initials, finals, transitions) -> BlockAutomaton:
    """Build an automaton from parts its caller made valid: `Transition`s
    with `BlockSymbol` labels between its states.  Skips the coercion of
    `make` and the checks of the constructor.  The package's own producers
    build through here; input from outside goes through `make`."""
    # Filled one by one, as `make` fills it: a copy of a set is sized from
    # the set's count, which for some counts doubles the table (4,800
    # transitions: 256 kB instead of 128 kB).
    transitions = frozenset(iter(transitions))
    a = object.__new__(BlockAutomaton)
    a.__dict__.update(
        states=frozenset(states),
        initials=frozenset(initials),
        finals=frozenset(finals),
        transitions=transitions,
    )
    return a


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


_WORD_LETTERS = 1_000_000  # the most letters `enumerate_words` holds


def enumerate_words(a: BlockAutomaton, maxlen: int) -> list[str]:
    """Accepted words over the base alphabet up to ``maxlen`` letters,
    in length-then-lexicographic order: a level of words and the subsets
    they reach per length.  Refused with `ValueError` once the words
    listed and the level being built hold more than `_WORD_LETTERS`
    letters."""
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    flat = expand_blocks(a)
    edges = flat.out_edges
    out: list[str] = []
    held = 0  # letters of the words in out
    level: dict = {"": flat.initials}
    for n in range(maxlen + 1):
        for word in sorted(level):
            if level[word] & flat.finals:
                out.append(word)
                held += n
        if n == maxlen or not level:
            break
        nxt: dict = {}
        for word, reached in level.items():
            for label, targets in _subset_steps(edges, reached).items():
                nxt[word + label.letters] = targets
            if held + (n + 1) * len(nxt) > _WORD_LETTERS:
                raise ValueError(f"words up to {maxlen} letters hold over {_WORD_LETTERS:,} letters")
        level = nxt
    return out


# --- trimming, standardization, expansion --------------------------------------


def trim(a: BlockAutomaton) -> BlockAutomaton:
    """Drop states that are not both accessible and co-accessible."""
    forward = _reachable(a.out_edges, a.initials)
    backward = _reachable(a.in_edges, a.finals, reverse=True)
    keep = forward & backward
    if len(keep) == len(a.states):
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


def longest_path(root, successors, finished: dict) -> int:
    """The number of edges on the longest path from ``root``, or -1 when a
    cycle is reachable from it: the package's one depth-first walk,
    iterative, calling ``successors(node)`` once per node it enters.

    Each node's depth goes into ``finished`` as the node finishes, so the
    dict lists nodes in finishing order, and a node found there is not
    entered again; on a cycle every node on the path gets -1."""
    path = {root}
    stack = [[root, iter(successors(root)), 0]]  # node, successors left, depth so far
    while True:
        frame = stack[-1]
        for node in frame[1]:
            depth = finished.get(node)
            if depth is None:
                if node not in path:
                    path.add(node)
                    stack.append([node, iter(successors(node)), 0])
                    break
                depth = -1  # met again on the path: a cycle
            if depth < 0:  # so every node on the path reaches a cycle
                for node, _, _ in stack:
                    finished[node] = -1
                return -1
            if depth >= frame[2]:
                frame[2] = depth + 1
        else:
            node, _, depth = stack.pop()
            path.remove(node)
            finished[node] = depth
            if not stack:
                return depth
            if depth >= stack[-1][2]:
                stack[-1][2] = depth + 1


def postorder(roots: Iterable, successors) -> list | None:
    """Every node reachable from the roots, each listed after all of its
    successors, or None when a cycle is reachable: `longest_path` from each
    root not yet finished."""
    finished: dict = {}
    for root in roots:
        if root not in finished and longest_path(root, successors, finished) < 0:
            return None
    return list(finished)


# --- clashing pairs -----------------------------------------------------------


def _clashing_pairs(edges: dict):
    """Pairs (t1, t2) of one state's out-edges, t1 before t2 in sorted order,
    whose t2 label equals or extends t1's, yielded in sorted order from an
    out_edges index.  Sorted, those labels follow t1 in one run, so the scan
    stops at the first label that does not extend it."""
    for ts in edges.values():
        for i, t1 in enumerate(ts):
            j = i + 1
            while j < len(ts) and ts[j].label.startswith(t1.label):
                yield t1, ts[j]
                j += 1


def standardize(a: BlockAutomaton) -> BlockAutomaton:
    """Give the automaton a single initial state without incoming transitions.

    Follows the textbook construction: a fresh initial copies every transition
    leaving an old initial state, and is final iff some old initial was.
    States made unreachable are dropped.
    """
    start = fresh_name(a.states, "i'")
    edges = a.out_edges
    new = tuple.__new__  # a Transition past its constructor: the parts are valid
    copied = {new(Transition, (start, t.label, t.target)) for q in a.initials for t in edges[q]}
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
    new = tuple.__new__  # a Transition past its constructor: the parts are valid
    for t in sorted(a.transitions):
        letters = t.label  # a str: slices and letters are plain strs
        source = t.source
        for offset in range(1, len(letters)):
            key = (letters[offset:], t.target)
            shared = chains.get(key)
            if shared is not None:
                transitions.append(new(Transition, (source, symbols[letters[offset - 1]], shared)))
                break
            fresh = chains[key] = fresh_name(states, f"@{len(chains)}")
            states.add(fresh)
            transitions.append(new(Transition, (source, symbols[letters[offset - 1]], fresh)))
            source = fresh
        else:
            transitions.append(new(Transition, (source, symbols[letters[-1]], t.target)))
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
    new = tuple.__new__  # a Transition past its constructor: the parts are valid
    det = _trusted(
        names.values(),
        [names[start]],
        [names[s] for s in subsets if s & a.finals],
        [new(Transition, (names[s], letter, names[t])) for s, letter, t in moves],
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
    """Merge states with equal right languages (Hopcroft's partition
    refinement for partial DFAs, O(m log n); see `_refine`).

    Missing transitions are kept missing, so they distinguish states from
    looping ones; the result is the unique minimal trimmed partial DFA.
    """
    if not is_deterministic(a) and a.states:
        raise ValueError("minimize expects a deterministic automaton")
    a = trim(a)
    rename = _quotient([(q, q in a.finals, row) for q, row in a.out_edges.items()])
    new = tuple.__new__  # a Transition past its constructor: the parts are valid
    return _trusted(
        rename.values(),
        [rename[q] for q in a.initials],
        [rename[q] for q in a.finals],
        [new(Transition, (rename[t.source], t.label, rename[t.target])) for t in a.transitions],
    )


def _quotient(rows: list) -> dict:
    """Hopcroft refinement of a partial DFA given as ``(state, final,
    out-edges)`` rows in sorted state order, every edge target among the
    rows' states: map each state to the name of its class of equal right
    languages.  Classes are named by `_name_groups` in the order of their
    least member, so primed names do not follow the hash seed.  The initial
    states are not read."""
    block_of: dict = {}
    blocks: list[set] = [set(), set()]  # non-final, final
    for q, final, _ in rows:
        block_of[q] = final  # a bool, so the index of its block
        blocks[final].add(q)
    if len(blocks[0]) > 1 or len(blocks[1]) > 1:  # a block can split
        _refine(rows, block_of, blocks)
    frozen = [frozenset(blocks[b]) for b in dict.fromkeys(block_of.values())]
    names = _name_groups(frozen)
    return {q: names[group] for group in frozen for q in group}


def _refine(rows: list, block_of: dict, blocks: list) -> None:
    """Split the blocks, in place, until every block's states agree, label
    by label, on the block their edges enter (Hopcroft, 1971).

    A splitter block splits every block, label by label, into the states
    with an edge of that label into the splitter and the rest.  The
    transition function is partial, so there is no sink block to leave out:
    both initial blocks go on the worklist (Valmari & Lehtinen, STACS 2008).
    A split leaves the larger part under the old id, still queued if the
    block was, and queues the smaller part under a new id.  So a state
    joins a new block at most log n times, a split costs the size of its
    marked part and a splitter the edges into it: O(m log n) for m edges
    on n states.  Refinement stops early once every block is one state."""
    into: dict = {q: {} for q in block_of}  # state -> label -> sources of such edges into it
    for q, _, edges in rows:
        for _, label, target in edges:
            sources = into[target].get(label)
            if sources is None:
                into[target][label] = [q]
            else:
                sources.append(q)
    work = [0, 1]  # an empty block splits nothing
    count = bool(blocks[0]) + bool(blocks[1])  # blocks with states
    while work and count < len(rows):
        entering: dict = {}  # label -> the source lists of such edges into the splitter
        for q in blocks[work.pop()]:
            for label, sources in into[q].items():
                found = entering.get(label)
                if found is None:
                    entering[label] = [sources]
                else:
                    found.append(sources)
        for lists in entering.values():
            marked: dict = {}  # block id -> its states with an edge of the label into the splitter
            for sources in lists:
                for p in sources:
                    b = block_of[p]
                    group = marked.get(b)
                    if group is None:
                        marked[b] = [p]
                    else:
                        group.append(p)
            for b, group in marked.items():
                block = blocks[b]
                if len(group) == len(block):  # a DFA: `group` lists each state once
                    continue
                if 2 * len(group) <= len(block):
                    part = set(group)
                    block.difference_update(part)
                else:
                    part = block.difference(group)
                    blocks[b] = set(group)
                new = len(blocks)
                blocks.append(part)
                for p in part:
                    block_of[p] = new
                work.append(new)
                count += 1


# --- isomorphism and equivalence --------------------------------------------------


def isomorphic(a: BlockAutomaton, b: BlockAutomaton) -> bool:
    """Label-respecting bijection test for deterministic trimmed automata,
    via canonical breadth-first numbering from the initial state."""
    return _canonical(a) == _canonical(b)


def _canonical(a: BlockAutomaton):
    a = trim(a)
    if a.states and not is_deterministic(a):
        raise ValueError("isomorphic expects deterministic automata")
    edges = a.out_edges
    number = dict.fromkeys(a.initials, 0)
    order = deque(number)
    while order:
        q = order.popleft()
        for t in edges[q]:
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
        "transitions": [transition_to_json(t) for t in sorted(a.transitions)],
    }


def transition_to_json(t: Transition) -> dict:
    return {"from": t.source, "label": t.label.letters, "to": t.target}


def from_json(data: Mapping) -> BlockAutomaton:
    """Read what `to_json` writes: each field a JSON array, each name and
    label a JSON string, each transition an object; then build through
    `BlockAutomaton.make`."""

    def array(name: str, values, kind=str) -> list:
        if isinstance(values, list) and all(isinstance(v, kind) for v in values):
            return values
        where = "" if isinstance(values, list) else " in an array"
        raise TypeError(f"{name} must be {'objects' if kind is dict else 'strings'}{where}")

    try:
        states = array("states", data["states"])
        initials = array("initials", data["initials"])
        finals = array("finals", data["finals"])
        triples = []
        for t in array("transitions", data["transitions"], dict):
            source, label, target = t["from"], t["label"], t["to"]
            if not (isinstance(source, str) and isinstance(label, str) and isinstance(target, str)):
                raise TypeError("transition from, label and to must be strings")
            triples.append((source, label, target))
        a = BlockAutomaton.make(states, initials, finals, triples)
        for b in array("alphabet", data.get("alphabet", [])):
            BlockSymbol(b)  # checked, then ignored: the alphabet is the labels used
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed automaton JSON: {exc}") from exc
    return a


def to_dot(a: BlockAutomaton) -> str:
    def quote(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph automaton {", "  rankdir=LR;"]
    for q in sorted(a.states):
        shape = "doublecircle" if q in a.finals else "circle"
        lines.append(f"  {quote(q)} [shape={shape}];")
    for n, q in enumerate(sorted(a.initials)):
        start = quote(fresh_name(a.states, f"__start{n}"))
        lines.append(f"  {start} [shape=point, style=invis];")
        lines.append(f"  {start} -> {quote(q)};")
    for t in sorted(a.transitions):
        lines.append(f'  {quote(t.source)} -> {quote(t.target)} [label="{t.label.letters}"];')
    lines.append("}")
    return "\n".join(lines)
