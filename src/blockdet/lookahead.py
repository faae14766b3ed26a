"""Tagged-subset walks that read k-lookahead determinism from the clash
groups of a width-1 automaton, and the pair table (`common_depths`) that is
their fallback when a walk runs over its work budget.  Each group's depth
and each entry of the table is one `automaton.longest_path` walk."""

from __future__ import annotations

from array import array
from itertools import combinations, groupby

from .automaton import BlockAutomaton, longest_path


def _clash_groups(edges: dict):
    """The clash groups of a width-1 automaton from its out_edges index, in
    sorted order: each run of two or more same-label edges in one row.  The
    clashing pairs are the pairs inside each group, in the same order."""
    for row in edges.values():
        if len(row) < 2:
            continue
        for _, run in groupby(row, key=lambda t: t.label):
            group = list(run)
            if len(group) > 1:
                yield group


def _group_pairs(groups):
    """The clashing pairs: the pairs inside each group, in sorted order."""
    return (pair for group in groups for pair in combinations(group, 2))


def _typecode(a: BlockAutomaton) -> str:
    """The array typecode of a depth.  A depth stays below the number of
    state pairs, n(n + 1)/2, which fits 32 bits up to 65,535 states."""
    return "i" if len(a.states) < 1 << 16 else "q"


def _common_depths(a: BlockAutomaton) -> array:
    """The table behind `BlockAutomaton.common_depths`: a walk of the pair
    graph from the targets of every clashing pair.  The graph's nodes are
    unordered state pairs; its edges read one label on both sides.

    A finished pair is kept only where two walks can meet.  Any other pair
    is entered from one predecessor pair, or also as the targets of one
    clashing pair, so no pair is walked more than twice."""
    edges = a.out_edges
    into = a.in_edges
    finished: dict = {}

    def successors(pair) -> list:
        """The pairs one label on.  A list, not a generator: every frame on
        the walk's path holds one, and a list is smaller."""
        p, q = pair
        found = []
        for i, t1 in enumerate(edges[p]):
            for t2 in edges[q][i:] if p == q else edges[q]:
                if t1.label == t2.label:
                    x, y = t1.target, t2.target
                    found.append((x, y) if x <= y else (y, x))
        return found

    def meets(pair) -> bool:
        """More than one pair of edges enters the pair."""
        return len(into[pair[0]]) * len(into[pair[1]]) > 1

    depths = array(_typecode(a))
    for t1, t2 in _group_pairs(_clash_groups(edges)):
        x, y = t1.target, t2.target
        root = (x, y) if x <= y else (y, x)
        depth = finished.get(root)
        depths.append(longest_path(root, successors, finished, meets) if depth is None else depth)
    return depths


class _OverBudget(Exception):
    """A tagged walk used up its work; the pair table answers instead."""


class _TaggedWalk:
    """Walks of one width-1 automaton from its clash groups, sharing one
    work budget.

    A walk node is the set of states that one word reaches from a group's
    targets, each tagged with the index of the group edge it came from, so
    two of the group's edges read a common word iff their tags meet in that
    word's node.  Only nodes where two tags meet are walked.  A node is a
    frozenset of ints, state number × group size + tag, states numbered on
    first use.  One unit of work is one (state, tag) entry expanded, which
    reads the state's out-edges, or one pair named.  A walk that runs over
    its budget gives way to the table, so its cost on top of the table's is
    at most the budget times the greatest out-degree."""

    def __init__(self, edges: dict, budget: int):
        self.edges = edges
        self.number: dict = {}  # state -> its number
        self.rows: list = []  # number -> the state's out-edges
        self.left = budget

    def _number(self, q: str) -> int:
        """Number a state the walk meets for the first time."""
        n = self.number[q] = len(self.rows)
        self.rows.append(self.edges[q])
        return n

    def _root(self, targets: tuple) -> frozenset:
        size = len(targets)
        number = self.number
        return frozenset([
            (number[q] if q in number else self._number(q)) * size + tag
            for tag, q in enumerate(targets)
        ])

    def _steps(self, node: frozenset, size: int, keep: int) -> list:
        """The nodes one label on from ``node`` in which two tags meet, each
        state keeping its ``keep`` least tags."""
        number, rows = self.number, self.rows
        moves: dict = {}  # label -> state number -> tags
        for entry in node:
            q, tag = divmod(entry, size)
            row = rows[q]
            self.left -= 1
            if self.left < 0:
                raise _OverBudget
            for _, label, target in row:
                into = moves.get(label)
                if into is None:
                    into = moves[label] = {}
                n = number.get(target)
                if n is None:
                    n = self._number(target)
                tags = into.get(n)
                if tags is None:
                    into[n] = {tag}
                else:
                    tags.add(tag)
        found = []
        for into in moves.values():
            entries = [
                n * size + tag
                for n, tags in into.items()
                for tag in (sorted(tags)[:keep] if len(tags) > keep else tags)
            ]
            if len({entry % size for entry in entries}) > 1:
                found.append(frozenset(entries))
        return found

    def depth(self, targets: tuple) -> int:
        """The greatest common depth of a group with these targets: the
        length of the longest word after which two tags meet, or -1 when
        such a node recurs on the walk's path, so that they meet after words
        of every length.  A state keeps its two least tags only, which is
        exact: the two least tags of a union are the two least of its parts'
        two least, and two tags meet in a node iff they meet in its two-least
        reduction."""
        size = len(targets)
        return longest_path(self._root(targets), lambda node: self._steps(node, size, 2), {})

    def pairs(self, targets: tuple, level: int) -> list:
        """The pairs (i, j), i < j, of these targets that read a common word
        of ``level`` letters, in sorted order: a level walk keeping every
        tag, where such a pair's tags meet in one node.  Each level's set of
        nodes is a function of the one before, so once a set repeats the
        walk jumps ahead by the period."""
        size = len(targets)
        levels = [frozenset([self._root(targets)])]
        seen = {levels[0]: 0}  # a level's set of nodes -> its first level
        while len(levels) <= level:
            nodes = frozenset(
                [step for node in levels[-1] for step in self._steps(node, size, size)]
            )
            first = seen.setdefault(nodes, len(levels))
            if first < len(levels):
                nodes = levels[first + (level - first) % (len(levels) - first)]
                break
            levels.append(nodes)
        else:
            nodes = levels[level]
        found: set = set()
        for node in nodes:
            tags = sorted({entry % size for entry in node})
            self.left -= len(tags) * (len(tags) - 1) // 2
            if self.left < 0:
                raise _OverBudget
            found.update(combinations(tags, 2))
        return sorted(found)


def _walk(a: BlockAutomaton, groups: list) -> _TaggedWalk:
    """A walk whose budget is the clashing-pair count plus the states and
    transitions."""
    pairs = sum(len(g) * (len(g) - 1) // 2 for g in groups)
    return _TaggedWalk(a.out_edges, pairs + len(a.states) + len(a.transitions))


def _group_targets(groups: list) -> list:
    """Each group's targets.  Groups with the same targets, which Glushkov
    automata have at every position with one Follow set, walk alike."""
    return [tuple([t.target for t in g]) for g in groups]


def _group_depths(a: BlockAutomaton) -> array:
    """The array behind `BlockAutomaton.group_depths`: a tagged walk per
    group, or the pair table folded per group (-1 above every depth) when
    the walks use up their budget."""
    groups = list(_clash_groups(a.out_edges))
    targets = _group_targets(groups)
    try:
        walk = _walk(a, groups)
        depth = {t: walk.depth(t) for t in dict.fromkeys(targets)}
        return array(_typecode(a), [depth[t] for t in targets])
    except _OverBudget:
        pass
    table = iter(a.common_depths)
    depths = array(_typecode(a))
    for g in groups:
        run = [next(table) for _ in range(len(g) * (len(g) - 1) // 2)]
        depths.append(-1 if -1 in run else max(run))
    return depths


def _lookahead_violations(a: BlockAutomaton, k: int) -> tuple:
    """The clashing pairs, in sorted order, whose targets read a common
    word of k - 1 letters: those whose depth is unbounded or at least
    k - 1.  A level walk k - 1 deep in each group that reaches k - 1, or
    the pair table once it is built or when the walk uses up its budget."""
    groups = list(_clash_groups(a.out_edges))
    if "common_depths" not in a.__dict__:
        try:
            walk = _walk(a, groups)
            named: dict = {}  # targets -> their pairs (i, j)
            found = []
            for group, targets, depth in zip(groups, _group_targets(groups), a.group_depths):
                if depth < 0 or depth >= k - 1:
                    if targets not in named:
                        named[targets] = walk.pairs(targets, k - 1)
                    found += [(group[i], group[j]) for i, j in named[targets]]
            return tuple(found)
        except _OverBudget:
            pass
    pairs = zip(_group_pairs(groups), a.common_depths)
    return tuple(pair for pair, depth in pairs if depth < 0 or depth >= k - 1)
