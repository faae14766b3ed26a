"""Independent references for the benchmark's expected answers.

Nothing here imports blockdet.  Expressions are small tuple trees built by
the generators; automata are the JSON dictionaries handed to the program.

Expression nodes:
    ("lit", "ab")          a block literal (one letter = width 1)
    ("eps",)               the empty word
    ("seq", [n1, n2, ...]) concatenation
    ("alt", [n1, n2, ...]) union
    ("star", n)            Kleene star
    ("opt", n)             n or the empty word, written (eps+n)
"""

from __future__ import annotations

from collections import deque


# --- expressions ----------------------------------------------------------------


def render(node) -> str:
    """Concrete syntax accepted by blockdet.parse.  Concatenation is always
    written with `.`, so juxtaposed letters can never spell `eps`/`empty`."""
    kind = node[0]
    if kind == "lit":
        return node[1] if len(node[1]) == 1 else f"[{node[1]}]"
    if kind == "eps":
        return "eps"
    if kind == "star":
        return f"({render(node[1])})*"
    if kind == "opt":
        return f"(eps+{render(node[1])})"
    sep = "." if kind == "seq" else "+"
    return "(" + sep.join(render(child) for child in node[1]) + ")"


def letter_expansion(node):
    """The same language with every block literal split into its letters."""
    kind = node[0]
    if kind == "lit":
        if len(node[1]) == 1:
            return node
        return ("seq", [("lit", letter) for letter in node[1]])
    if kind == "eps":
        return node
    if kind in ("star", "opt"):
        return (kind, letter_expansion(node[1]))
    return (kind, [letter_expansion(child) for child in node[1]])


class Positions:
    """Null/First/Last/Follow of a tuple expression, literals numbered in
    left-to-right order."""

    def __init__(self, node):
        self.blocks: list[str] = []
        self.follow: list[set] = []
        self.nullable, self.first, self.last = self._scan(node)

    def _scan(self, node):
        kind = node[0]
        if kind == "lit":
            p = len(self.blocks)
            self.blocks.append(node[1])
            self.follow.append(set())
            return False, {p}, {p}
        if kind == "eps":
            return True, set(), set()
        if kind in ("star", "opt"):
            _, first, last = self._scan(node[1])
            if kind == "star":
                for p in last:
                    self.follow[p] |= first
            return True, first, last
        if kind == "alt":
            nullable, first, last = False, set(), set()
            for child in node[1]:
                n, f, l = self._scan(child)
                nullable, first, last = nullable or n, first | f, last | l
            return nullable, first, last
        nullable, first, last = True, set(), set()
        for child in node[1]:
            n, f, l = self._scan(child)
            for p in last:
                self.follow[p] |= f
            first = first | f if nullable else first
            last = l | last if n else l
            nullable = nullable and n
        return nullable, first, last

    def choice_sets(self) -> list[set]:
        """The sets whose members are alternatives after one prefix:
        First, then Follow(p) for every position p."""
        return [self.first, *self.follow]

    def width(self) -> int:
        return max((len(b) for b in self.blocks), default=0)


def is_block_deterministic(node, k: int) -> bool:
    """Glushkov automaton is k-block deterministic: width <= k and no two
    alternatives after one prefix carry prefix-related blocks."""
    pos = Positions(node)
    if pos.width() > k:
        return False
    for choices in pos.choice_sets():
        blocks = sorted(pos.blocks[p] for p in choices)
        for left, right in zip(blocks, blocks[1:]):
            if right.startswith(left):
                return False
    return True


def is_deterministic(node) -> bool:
    """Glushkov automaton of a width-1 expression is deterministic."""
    return is_block_deterministic(node, 1)


def _lookahead_ok(pos: Positions, k: int) -> bool:
    """No two same-letter alternatives can both read one word of k-1 letters."""
    for choices in pos.choice_sets():
        ordered = sorted(choices)
        for i, p in enumerate(ordered):
            for q in ordered[i + 1 :]:
                if pos.blocks[p] != pos.blocks[q]:
                    continue
                frontier = {(p, q)}
                for _ in range(k - 1):
                    frontier = {
                        (x, y)
                        for (u, v) in frontier
                        for x in pos.follow[u]
                        for y in pos.follow[v]
                        if pos.blocks[x] == pos.blocks[y]
                    }
                if frontier:
                    return False
    return True


def is_lookahead_deterministic(node, k: int) -> bool:
    return _lookahead_ok(Positions(node), k)


def min_lookahead(node) -> int | None:
    """Least k with k-lookahead determinism, None when no k works.  A common
    word longer than the number of position pairs runs through a cycle of
    the pair graph, so common words then exist at every length."""
    pos = Positions(node)
    bound = len(pos.blocks) ** 2 + 2
    for k in range(1, bound + 1):
        if _lookahead_ok(pos, k):
            return k
    return None


# --- dictionaries, tag groups, chains ---------------------------------------------


def dictionary_min_lookahead(words) -> int:
    """1 + the longest common prefix of two words sharing a first letter
    (1 when no two words share one)."""
    best = 0
    ordered = sorted(words)
    for left, right in zip(ordered, ordered[1:]):
        common = 0
        while common < min(len(left), len(right)) and left[common] == right[common]:
            common += 1
        best = max(best, common)
    return best + 1


def tag_group_min_states(tags) -> int:
    """States of the minimal DFA of (t1+...+tm)* for distinct tags of one
    width w: the start state plus, per depth 1..w-1, one state per distinct
    set of suffixes that follow a prefix of that depth."""
    width = len(next(iter(tags)))
    total = 1
    for depth in range(1, width):
        suffixes: dict = {}
        for tag in tags:
            suffixes.setdefault(tag[:depth], set()).add(tag[depth:])
        total += len({frozenset(s) for s in suffixes.values()})
    return total


def chain_automaton(left: int, right: int) -> dict:
    """Two a-chains of `left` and `right` states hanging off one initial
    state by the same letter; both chain ends are final."""
    xs = [f"x{j}" for j in range(1, left + 1)]
    ys = [f"y{j}" for j in range(1, right + 1)]
    transitions = [("i", "a", xs[0]), ("i", "a", ys[0])]
    transitions += [(u, "a", v) for u, v in zip(xs, xs[1:])]
    transitions += [(u, "a", v) for u, v in zip(ys, ys[1:])]
    return automaton_json(["i", *xs, *ys], ["i"], [xs[-1], ys[-1]], transitions)


def chain_min_lookahead(left: int, right: int) -> int:
    """Both branches read a^(min-1) after the shared first letter and no
    more, so the lookahead must see min letters in all."""
    return min(left, right) + 1


def block_ak_json(k: int) -> dict:
    """The chain automaton A_k of the block-hierarchy family."""
    alphas = [f"α{j}" for j in range(1, k + 1)]
    betas = [f"β{j}" for j in range(1, k + 1)]
    transitions = [
        (f"β{k}", "a", f"α{k}"),
        ("β1", "b", "f"),
        (f"α{k}", "a", f"α{k}"),
        ("α1", "b", "f"),
        ("α1", "c", f"β{k}"),
    ]
    for j in range(2, k + 1):
        transitions.append((f"α{j}", "b", f"α{j - 1}"))
        transitions.append((f"β{j}", "b", f"β{j - 1}"))
    return automaton_json(
        ["f", *alphas, *betas], [f"β{k}"], ["f", f"α{k}", f"β{k}"], transitions
    )


def block_bk_transitions(k: int) -> set:
    """A_k after eliminating both b-chains below their top states."""
    return {
        (f"β{k}", "b" * k, "f"),
        (f"β{k}", "a", f"α{k}"),
        (f"α{k}", "a", f"α{k}"),
        (f"α{k}", "b" * k, "f"),
        (f"α{k}", "b" * (k - 1) + "c", f"β{k}"),
    }


def block_ak_chain_states(k: int) -> list[str]:
    return [f"α{j}" for j in range(1, k)] + [f"β{j}" for j in range(1, k)]


# --- automata as JSON -----------------------------------------------------------------


def automaton_json(states, initials, finals, transitions) -> dict:
    return {
        "states": sorted(states),
        "initials": sorted(initials),
        "finals": sorted(finals),
        "transitions": [
            {"from": s, "label": label, "to": t} for s, label, t in sorted(transitions)
        ],
    }


def transition_set(data: dict) -> set:
    return {(t["from"], t["label"], t["to"]) for t in data["transitions"]}


def words(data: dict, max_letters: int) -> set[str]:
    """Accepted words of at most `max_letters` letters (labels concatenated)."""
    out_edges: dict = {}
    for s, label, t in transition_set(data):
        out_edges.setdefault(s, []).append((label, t))
    finals = set(data["finals"])
    seen = {(q, "") for q in data["initials"]}
    agenda = deque(seen)
    accepted = set()
    while agenda:
        q, word = agenda.popleft()
        if q in finals:
            accepted.add(word)
        for label, t in out_edges.get(q, ()):
            nxt = (t, word + label)
            if len(nxt[1]) <= max_letters and nxt not in seen:
                seen.add(nxt)
                agenda.append(nxt)
    return accepted


def is_dfa(data: dict) -> bool:
    keys = [(s, label) for s, label, _ in transition_set(data)]
    return len(data["initials"]) == 1 and len(keys) == len(set(keys))
