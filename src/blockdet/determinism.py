"""Determinism, k-block determinism and k-lookahead determinism checks,
plus the brute-force marked-language oracles."""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from .automaton import BlockAutomaton, _clashing_pairs
from .glushkov import glushkov
from .lookahead import _lookahead_violations
from .syntax import RegexAst, _Record, _slot_setters, language, mark, width


class CheckResult(_Record):
    """Verdict of a k-indexed determinism check with its witness pairs.

    Violations are ordered pairs of transitions sharing a source state, in
    the sorted order the scan yields them, so the first is the least witness.
    """

    __slots__ = _fields = ("k", "verdict", "violations")

    def __init__(self, k: int, verdict: bool, violations: tuple):
        _set_k(self, k)
        _set_verdict(self, verdict)
        _set_violations(self, violations)

    def __bool__(self) -> bool:
        return self.verdict


_set_k, _set_verdict, _set_violations = _slot_setters(CheckResult)


# --- automaton-level checks -----------------------------------------------------


def is_k_block_deterministic(a: BlockAutomaton, k: int) -> CheckResult:
    """Every label at most k letters long, one initial state, and per state
    pairwise non-prefix outgoing labels (equal labels to distinct targets count)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    violations = tuple(_clashing_pairs(a.out_edges))
    verdict = a.width <= k and len(a.initials) == 1 and not violations
    return CheckResult(k, verdict, violations)


def is_k_lookahead_deterministic(a: BlockAutomaton, k: int) -> CheckResult:
    """No two same-labelled branches from a state may read a common word of
    length k-1.  The verdict reads the automaton's `group_depths`, one
    greatest common depth per group of same-label transitions leaving a
    state.  Only when some group reaches k-1 are the violating pairs named:
    by a level walk k-1 deep in each such group, or from the depths of its
    pairs when it fell back to them (see `blockdet.lookahead`)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if a.width > 1:
        raise ValueError("lookahead determinism is defined on width-1 automata")
    depths = a.group_depths
    violations = ()
    if min(depths, default=0) < 0 or max(depths, default=-1) >= k - 1:
        violations = _lookahead_violations(a, k)
    verdict = len(a.initials) == 1 and not violations
    return CheckResult(k, verdict, violations)


def min_lookahead(a: BlockAutomaton) -> int | None:
    """Least k making the automaton k-lookahead deterministic, or None when
    no k exists: when the automaton has more or fewer than one initial
    state, or some violating pair can read common words of every length."""
    if a.width > 1:
        raise ValueError("lookahead determinism is defined on width-1 automata")
    if len(a.initials) != 1 or -1 in a.group_depths:
        return None
    return max(a.group_depths, default=-1) + 2


# --- expression-level checks ------------------------------------------------------


def is_k_block_deterministic_expression(expr: RegexAst, k: int) -> CheckResult:
    """k-block determinism of the expression's Glushkov automaton."""
    return is_k_block_deterministic(glushkov(expr).automaton, k)


def is_k_lookahead_deterministic_expression(expr: RegexAst, k: int) -> CheckResult:
    """k-lookahead determinism of the expression's Glushkov automaton;
    requires all blocks to be single letters."""
    return is_k_lookahead_deterministic(glushkov(expr).automaton, k)


# --- brute-force marked-language oracles ---------------------------------------------


class OracleResult(_Record):
    """Bounded brute-force verdict; a False verdict carries a witness
    (shared prefix, first branch symbol, second branch symbol)."""

    __slots__ = _fields = ("verdict", "witness")

    def __init__(self, verdict: bool, witness: tuple | None):
        _set_oracle_verdict(self, verdict)
        _set_witness(self, witness)

    def __bool__(self) -> bool:
        return self.verdict


_set_oracle_verdict, _set_witness = _slot_setters(OracleResult)


def marked_language_oracle(kind: str, expr: RegexAst, k: int, maxlen: int) -> OracleResult:
    """Check the marked-word characterisations of block and lookahead
    determinism over all marked words of length <= maxlen."""
    if kind not in ("block", "lookahead"):
        raise ValueError("kind must be 'block' or 'lookahead'")
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    prefixes = _marked_prefixes(expr, maxlen)
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


@lru_cache(maxsize=256)
def _marked_prefixes(expr: RegexAst, maxlen: int) -> dict:
    return _prefix_tree(language(mark(expr).ast, maxlen))


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
