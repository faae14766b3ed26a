"""Tagged-subset walks that read k-lookahead determinism from the clash
groups of a width-1 automaton (two or more same-label edges leaving one
state).  The tagged walks of one call share a work budget; a group they
do not answer within it falls back to the pair walk over its own pairs,
whose depths are kept with the automaton's `group_depths` for later checks.
The pair walks read only the out-edges and share one dict of the pairs they
have finished.  Each group's depth and each pair's depth is one
`automaton.longest_path` walk."""

from __future__ import annotations

from array import array
from itertools import combinations, compress, groupby

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


class _OverBudget(Exception):
    """The tagged walks used up their work; the group's pairs answer."""


class _Groups:
    """The clash groups of one width-1 automaton and the walks that answer
    them, kept with its `group_depths`: tagged walks sharing one work
    budget per call, and past it the pair walk over each group's own pairs,
    whose finished pairs every later pair walk reads.

    A walk node is the set of states that one word reaches from a group's
    targets, each tagged with the index of the group edge it came from, so
    two of the group's edges read a common word iff their tags meet in that
    word's node.  Only nodes where two tags meet are walked.  A node is a
    frozenset of ints, state number × group size + tag, states numbered on
    first use.  One unit of work is one (state, tag) entry expanded, which
    reads the state's out-edges, or one pair named, so the tagged walks
    cost at most the budget times the greatest out-degree."""

    def __init__(self, a: BlockAutomaton):
        self.edges = a.out_edges
        self.groups = list(_clash_groups(self.edges))
        # Groups with the same targets, which Glushkov automata have at
        # every position with one Follow set, are answered alike.
        self.targets = [tuple([t.target for t in g]) for g in self.groups]
        pairs = sum(len(g) * (len(g) - 1) // 2 for g in self.groups)
        self.budget = self.left = pairs + len(a.states) + len(a.transitions)
        self.number: dict = {}  # state -> its number
        self.rows: list = []  # number -> the state's out-edges
        self.fallen: dict = {}  # targets -> the depths of their pairs
        self.finished: dict = {}  # pair -> its depth, for every pair walk

    def answer(self, targets: tuple, walked, folded):
        """``walked(targets)`` from the tagged walk, or ``folded(targets,
        depths)`` from the depths of the targets' pairs, in sorted order:
        for a group that fell back before, or once the tagged walks of this
        call have used up the budget, on this group or an earlier one."""
        depths = self.fallen.get(targets)
        if depths is None:
            if self.left >= 0:
                try:
                    return walked(targets)
                except _OverBudget:
                    pass
            depths = self.fallen[targets] = array("q", map(self._pair_depth, combinations(targets, 2)))
        return folded(targets, depths)

    def _pair_depth(self, pair: tuple) -> int:
        """The length of the longest label word that both states read, or -1
        when they read common words of every length: a walk of the pair
        graph (an edge reads one label on both sides) over ``finished``."""
        x, y = pair
        root = pair if x <= y else (y, x)
        depth = self.finished.get(root)
        return longest_path(root, self._pair_steps, self.finished) if depth is None else depth

    def _pair_steps(self, pair: tuple) -> list:
        """The pairs one label on: a list, smaller than a generator."""
        p, q = pair
        edges = self.edges
        found = []
        for i, t1 in enumerate(edges[p]):
            for t2 in edges[q][i:] if p == q else edges[q]:
                if t1.label == t2.label:
                    x, y = t1.target, t2.target
                    found.append((x, y) if x <= y else (y, x))
        return found

    def _number(self, q: str) -> int:
        """Number a state the walk meets for the first time."""
        n = self.number[q] = len(self.rows)
        self.rows.append(self.edges[q])
        return n

    def _root(self, targets: tuple) -> frozenset:
        size, number = len(targets), self.number
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
            self.left -= 1
            if self.left < 0:
                raise _OverBudget
            for _, label, target in rows[q]:
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


class _GroupDepths(array):
    """`BlockAutomaton.group_depths`, carrying the `_Groups` that answered it."""

    __slots__ = ("groups",)


def _group_depths(a: BlockAutomaton) -> _GroupDepths:
    """The array behind `BlockAutomaton.group_depths`: a tagged walk per
    distinct group, or its pair depths folded (-1 above every depth)."""
    groups = _Groups(a)
    fold = lambda _, depths: -1 if -1 in depths else max(depths)
    depth = {t: groups.answer(t, groups.depth, fold) for t in dict.fromkeys(groups.targets)}
    depths = _GroupDepths("q", [depth[t] for t in groups.targets])
    depths.groups = groups
    return depths


def _lookahead_violations(a: BlockAutomaton, k: int) -> tuple:
    """The clashing pairs, in sorted order, whose targets read a common
    word of k - 1 letters: those whose depth is unbounded or at least
    k - 1.  A level walk k - 1 deep in each group that reaches k - 1, or
    its pair depths once it fell back."""
    groups = a.group_depths.groups
    groups.left = groups.budget  # a budget of its own, as the depth walks had
    walked = lambda targets: groups.pairs(targets, k - 1)

    def folded(targets: tuple, kept: array) -> list:
        pairs = combinations(range(len(targets)), 2)
        return list(compress(pairs, [depth < 0 or depth >= k - 1 for depth in kept]))

    named: dict = {}  # targets -> their pairs (i, j)
    found = []
    for group, targets, depth in zip(groups.groups, groups.targets, a.group_depths):
        if depth < 0 or depth >= k - 1:
            if len(group) == 2:  # one pair, whose depth is the group's
                found.append((group[0], group[1]))
                continue
            pairs = named.get(targets)
            if pairs is None:
                pairs = named[targets] = groups.answer(targets, walked, folded)
            found += [(group[i], group[j]) for i, j in pairs]
    return tuple(found)
