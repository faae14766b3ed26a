"""Determinism, k-block determinism and k-lookahead determinism checks,
plus the brute-force marked-language oracles."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .automaton import BlockAutomaton, postorder, transition_to_json
from .glushkov import glushkov
from .syntax import Empty, RegexAst, language, mark, parse, to_text, width


@dataclass(frozen=True)
class CheckResult:
    """Verdict of a k-indexed determinism check with its witness pairs.

    Violations are ordered pairs of transitions sharing a source state,
    lexicographically sorted so the first one is the least witness.
    """

    k: int
    verdict: bool
    violations: tuple

    def __bool__(self) -> bool:
        return self.verdict


@dataclass(frozen=True)
class DeterminismReport:
    deterministic: bool
    k_block: CheckResult | None = None
    k_lookahead: CheckResult | None = None
    min_lookahead: int | None = None


def report_to_json(report: DeterminismReport) -> dict:
    def check(c: CheckResult | None):
        if c is None:
            return None
        return {
            "k": c.k,
            "verdict": c.verdict,
            "violations": [
                [transition_to_json(t1), transition_to_json(t2)] for t1, t2 in c.violations
            ],
        }

    return {
        "deterministic": report.deterministic,
        "k_block": check(report.k_block),
        "k_lookahead": check(report.k_lookahead),
        "min_lookahead": report.min_lookahead,
    }


# --- automaton-level checks -----------------------------------------------------


def is_k_block_deterministic(a: BlockAutomaton, k: int) -> CheckResult:
    """Width at most k, a single initial state, and per state pairwise
    non-prefix outgoing labels (equal labels to distinct targets count)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    violations = tuple(sorted(_clashing_pairs(a.out_edges, str.startswith)))
    verdict = a.width <= k and len(a.initials) == 1 and not violations
    return CheckResult(k, verdict, violations)


def is_k_lookahead_deterministic(a: BlockAutomaton, k: int) -> CheckResult:
    """No two same-labelled branches from a state may read a common word of
    length k-1; decided by depth-(k-1) reachability in the pair graph."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if a.width > 1:
        raise ValueError("lookahead determinism is defined on width-1 automata")
    edges = a.out_edges
    violations = []
    for t1, t2 in _clashing_pairs(edges, str.__eq__):
        if _common_word_exists(edges, t1.target, t2.target, k - 1):
            violations.append((t1, t2))
    verdict = len(a.initials) == 1 and not violations
    return CheckResult(k, verdict, tuple(sorted(violations)))


def min_lookahead(a: BlockAutomaton) -> int | None:
    """Least k making the automaton k-lookahead deterministic, or None when
    no k exists (some violating pair can read common words of every length)."""
    if a.width > 1:
        raise ValueError("lookahead determinism is defined on width-1 automata")
    if len(a.initials) != 1:
        return None
    edges = a.out_edges
    needed = 1
    for t1, t2 in _clashing_pairs(edges, str.__eq__):
        depth = _longest_common_depth(edges, t1.target, t2.target)
        if depth is None:
            return None
        needed = max(needed, depth + 2)
    return needed


def _clashing_pairs(edges: dict, clash):
    """Pairs (t1, t2) of one state's out-edges, t1 before t2 in sorted order,
    with ``clash(t2's label, t1's label)``.

    `clash` must hold only for labels equal to or extending t1's: sorted,
    those follow t1 in one run, so the scan stops at the first label that
    does not clash."""
    for leaving in edges.values():
        ts = sorted(leaving)
        for i, t1 in enumerate(ts):
            j = i + 1
            while j < len(ts) and clash(ts[j].label, t1.label):
                yield t1, ts[j]
                j += 1


def _pair_successors(edges, pair):
    p, q = pair
    for t1 in edges[p]:
        for t2 in edges[q]:
            if t1.label == t2.label:
                pt, qt = t1.target, t2.target
                yield (pt, qt) if pt <= qt else (qt, pt)


def _common_word_exists(edges, q1, q2, length: int) -> bool:
    frontier = {(q1, q2) if q1 <= q2 else (q2, q1)}
    for _ in range(length):
        frontier = {nxt for pair in frontier for nxt in _pair_successors(edges, pair)}
        if not frontier:
            return False
    return True


def _longest_common_depth(edges, q1, q2) -> int | None:
    """Longest common readable word from the pair, or None if unbounded.

    Explores the product graph; a reachable cycle means words of every
    length are readable from both sides."""
    seed = (q1, q2) if q1 <= q2 else (q2, q1)
    graph: dict = {}

    def successors(pair):
        graph[pair] = set(_pair_successors(edges, pair))
        return graph[pair]

    order = postorder([seed], successors)
    if order is None:
        return None
    depth: dict = {}
    for pair in order:
        depth[pair] = max((1 + depth[nxt] for nxt in graph[pair]), default=0)
    return depth[seed]


# --- expression-level checks ------------------------------------------------------


def is_k_block_deterministic_expression(expr: RegexAst, k: int) -> CheckResult:
    """k-block determinism of the expression's Glushkov automaton."""
    return is_k_block_deterministic(glushkov(expr).automaton, k)


def is_k_lookahead_deterministic_expression(expr: RegexAst, k: int) -> CheckResult:
    """k-lookahead determinism of the expression's Glushkov automaton;
    requires all blocks to be single letters."""
    if width(expr) > 1:
        raise ValueError("lookahead determinism is defined on width-1 expressions")
    return is_k_lookahead_deterministic(glushkov(expr).automaton, k)


# --- brute-force marked-language oracles ---------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    """Bounded brute-force verdict; a False verdict carries a witness
    (shared prefix, first branch symbol, second branch symbol)."""

    verdict: bool
    witness: tuple | None

    def __bool__(self) -> bool:
        return self.verdict


def marked_language_oracle(kind: str, expr: RegexAst, k: int, maxlen: int) -> OracleResult:
    """Check the marked-word characterisations of block and lookahead
    determinism over all marked words of length <= maxlen."""
    if kind not in ("block", "lookahead"):
        raise ValueError("kind must be 'block' or 'lookahead'")
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    if isinstance(expr, Empty):
        return OracleResult(True, None)
    prefixes = _marked_prefixes(to_text(expr), maxlen)
    if kind == "block":
        if width(expr) > k:
            return OracleResult(False, None)
        return _first_clash(prefixes, _block_clash)
    if width(expr) > 1:
        raise ValueError("lookahead determinism is defined on width-1 expressions")
    return _lookahead_oracle(prefixes, k)


def _prefix_tree(words: Iterable[tuple]) -> dict:
    """Map every prefix of the language to the set of symbols that follow it."""
    children: dict = {(): set()}
    for word in words:
        for cut in range(len(word)):
            prefix = word[:cut]
            children.setdefault(prefix, set()).add(word[cut])
        children.setdefault(word, set())
    return children


# Keyed on the expression's text: hashing the AST itself recurses per level.
@lru_cache(maxsize=256)
def _marked_prefixes(text: str, maxlen: int) -> dict:
    return _prefix_tree(language(mark(parse(text)).ast, maxlen))


def _first_clash(prefixes: dict, clash) -> OracleResult:
    """The least (prefix, first branch, second branch) whose branches clash,
    with ``clash(prefix, b1, b2)`` on each pair of branches after a prefix."""
    for prefix in sorted(prefixes, key=lambda p: (len(p), tuple(map(str, p)))):
        branches = sorted(prefixes[prefix])
        for i, b1 in enumerate(branches):
            for b2 in branches[i + 1 :]:
                if clash(prefix, b1, b2):
                    return OracleResult(False, (prefix, b1, b2))
    return OracleResult(True, None)


def _block_clash(_prefix, b1, b2) -> bool:
    u, v = b1.drop().letters, b2.drop().letters
    return u.startswith(v) or v.startswith(u)


def _lookahead_oracle(prefixes: dict, k: int) -> OracleResult:
    memo: dict = {}

    def dropped_extensions(prefix) -> frozenset:
        """Dropped words of exactly k-1 symbols readable below `prefix`."""
        if prefix not in memo:
            frontier = [(prefix, "")]
            for _ in range(k - 1):
                frontier = [
                    (below + (sym,), word + sym.drop().letters)
                    for below, word in frontier
                    for sym in prefixes[below]
                ]
            memo[prefix] = frozenset(word for _, word in frontier)
        return memo[prefix]

    def clash(prefix, b1, b2) -> bool:
        return b1.drop() == b2.drop() and bool(
            dropped_extensions(prefix + (b1,)) & dropped_extensions(prefix + (b2,))
        )

    return _first_clash(prefixes, clash)
