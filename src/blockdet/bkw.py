"""Orbit analysis, the BKW decision procedure for one-unambiguity, and the
alphabetic-image certificate for k-block deterministic languages."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from .automaton import (
    BlockAutomaton,
    _minimize,
    determinize,
    expand_blocks,
    in_edges,
    is_deterministic,
    minimize,
    out_edges,
    postorder,
    trim,
)
from .determinism import is_k_block_deterministic
from .glushkov import GlushkovAutomaton, glushkov
from .syntax import Empty, RegexAst


# --- orbits --------------------------------------------------------------------


@dataclass(frozen=True)
class Orbit:
    states: frozenset
    trivial: bool
    in_gates: frozenset
    out_gates: frozenset


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple

    def orbit_of(self, state: str) -> Orbit:
        for orbit in self.orbits:
            if state in orbit.states:
                return orbit
        raise KeyError(state)

    def nontrivial(self) -> tuple:
        return tuple(o for o in self.orbits if not o.trivial)


def orbit_decomposition(a: BlockAutomaton) -> OrbitDecomposition:
    """Strongly connected components with gates and triviality flags."""
    return _orbits(a, out_edges(a))


def _orbits(a: BlockAutomaton, edges: dict) -> OrbitDecomposition:
    entering = in_edges(a)
    orbits = []
    for component in _tarjan(a.states, edges):
        # trivial = singleton without a self-loop
        trivial = len(component) == 1 and not any(
            t.target in component for q in component for t in edges[q]
        )
        in_gates = {
            q
            for q in component
            if q in a.initials or any(t.source not in component for t in entering[q])
        }
        out_gates = {
            q
            for q in component
            if q in a.finals or any(t.target not in component for t in edges[q])
        }
        orbits.append(
            Orbit(frozenset(component), trivial, frozenset(in_gates), frozenset(out_gates))
        )
    orbits.sort(key=lambda o: sorted(o.states))
    return OrbitDecomposition(tuple(orbits))


def _tarjan(states: frozenset, edges: dict) -> list[set]:
    """Iterative Tarjan SCC over an out_edges index."""
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[set] = []
    counter = 0
    for root in sorted(states):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, child_i = work.pop()
            if child_i == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for i in range(child_i, len(edges[node])):
                nxt = edges[node][i].target
                if nxt not in index:
                    work.append((node, i + 1))
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


@dataclass(frozen=True)
class OrbitPropertyResult:
    holds: bool
    orbit: frozenset | None = None
    pair: tuple | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.holds


def orbit_property(a: BlockAutomaton) -> OrbitPropertyResult:
    """All out-gates of each orbit agree on finality and on every transition
    leaving the orbit."""
    edges = out_edges(a)
    return _orbit_property(a, _orbits(a, edges), edges)


def _orbit_property(
    a: BlockAutomaton, decomposition: OrbitDecomposition, edges: dict
) -> OrbitPropertyResult:
    for orbit in decomposition.orbits:
        gates = sorted(orbit.out_gates)
        leaving = {
            g: {(t.label, t.target) for t in edges[g] if t.target not in orbit.states}
            for g in gates
        }
        for p in gates:
            for q in gates:
                if p == q:
                    continue
                if p in a.finals and q not in a.finals:
                    return OrbitPropertyResult(
                        False, orbit.states, (p, q), f"{p} is final but {q} is not"
                    )
                for b, r in sorted(leaving[p]):
                    if (b, r) not in leaving[q]:
                        return OrbitPropertyResult(
                            False,
                            orbit.states,
                            (p, q),
                            f"{p} leaves via {p} -{b.letters}-> {r} but {q} does not",
                        )
    return OrbitPropertyResult(True)


def consistent_symbols(a: BlockAutomaton) -> frozenset:
    """Symbols whose transitions from every final state share one target."""
    if not a.states:
        return frozenset()
    if not is_deterministic(a):
        raise ValueError("consistent symbols are defined on deterministic automata")
    edges = out_edges(a)
    moves = [{(t.label, t.target) for t in edges[f]} for f in a.finals]
    shared = set.intersection(*moves) if moves else set()
    return frozenset(label for label, _ in shared)


def s_cut(a: BlockAutomaton, symbols: Iterable) -> BlockAutomaton:
    """Remove the `symbols`-labelled transitions leaving final states, then trim."""
    cut_set = frozenset(symbols)
    if cut_set and not cut_set <= consistent_symbols(a):
        raise ValueError("s_cut needs a consistent symbol set")
    return _cut(a, cut_set)


def _cut(a: BlockAutomaton, symbols: frozenset) -> BlockAutomaton:
    """`s_cut` on symbols already known to be consistent."""
    kept = [t for t in a.transitions if not (t.source in a.finals and t.label in symbols)]
    return trim(
        BlockAutomaton.make(
            states=a.states,
            initials=a.initials,
            finals=a.finals,
            transitions=kept,
        )
    )


def orbit_automaton(a: BlockAutomaton, state: str) -> BlockAutomaton:
    """Restrict to the orbit of `state`, making it initial and the orbit's
    out-gates final."""
    edges = out_edges(a)
    orbit = _orbits(a, edges).orbit_of(state)
    return _orbit_automaton(orbit, _inside(orbit, edges), state)


def _inside(orbit: Orbit, edges: dict) -> list:
    """The transitions with both ends in the orbit."""
    return [t for q in orbit.states for t in edges[q] if t.target in orbit.states]


def _orbit_automaton(orbit: Orbit, inside: list, state: str) -> BlockAutomaton:
    return BlockAutomaton.make(
        states=orbit.states, initials={state}, finals=orbit.out_gates, transitions=inside
    )


# --- the BKW test -----------------------------------------------------------------


@dataclass(frozen=True)
class BkwNode:
    """One step of the BKW test: the analysis of one automaton."""

    fingerprint: str
    consistent: tuple
    orbit_property_holds: bool | None
    failure: str | None
    violating_orbit: frozenset | None = None
    violating_pair: tuple | None = None
    context: str | None = None
    children: tuple = field(default=())

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass(frozen=True)
class BkwTrace:
    verdict: bool
    steps: BkwNode


def bkw_test(a: BlockAutomaton) -> BkwTrace:
    """Decision procedure for one-unambiguity.

    On a minimal DFA the verdict decides one-unambiguity of the language;
    on a merely deterministic automaton a passing verdict is a sufficient
    certificate.  Each distinct automaton met is analysed once, children
    first, and every parent shares its node.
    """
    if a.states and not is_deterministic(a):
        raise ValueError("the BKW test needs a deterministic automaton")
    a = trim(a)
    root = (a.transitions, a.initials, a.finals)  # determines a trimmed automaton
    unrooted = {root: a}  # per key, an automaton that differs at most in initials
    steps: dict = {}

    def successors(key):
        x = unrooted[key]
        if x.initials != key[1]:  # built on a memo miss only
            x = replace(x, initials=key[1])
        steps[key] = _, edges = _bkw_step(x)
        unrooted.update((child, sub) for _, child, sub in edges)
        return [child for _, child, _ in edges]

    for key in postorder([root], successors):  # children first
        fields, edges = steps[key]
        fields["children"] = tuple(BkwNode(**steps[c][0], context=w) for w, c, _ in edges)
        if not all(child.ok for child in fields["children"]):
            fields["failure"] = "recursion"
    node = BkwNode(**steps[root][0])
    return BkwTrace(node.ok, node)


def _bkw_step(a: BlockAutomaton) -> tuple[dict, list]:
    """The fields of the node of `a` but its context and children, and per
    child its context, its key and an automaton that differs from it at
    most in initials."""
    fingerprint = f"{len(a.states)} states, {len(a.transitions)} transitions"
    fields = dict(fingerprint=fingerprint, consistent=(), orbit_property_holds=True, failure=None)
    if not a.states:
        return fields, []
    symbols = consistent_symbols(a)
    cut = _cut(a, symbols)
    edges = out_edges(cut)
    decomposition = _orbits(cut, edges)
    # Without consistent symbols the cut is `a` itself, which is trimmed.
    single_nontrivial = (
        len(decomposition.orbits) == 1 and not decomposition.orbits[0].trivial
    )
    if single_nontrivial and not symbols:
        return {**fields, "orbit_property_holds": None, "failure": "no-consistent-symbol"}, []
    fields["consistent"] = tuple(sorted(b.letters for b in symbols))
    holds = _orbit_property(cut, decomposition, edges)
    if not holds:
        fields.update(orbit_property_holds=False, failure="orbit-property",
                      violating_orbit=holds.orbit, violating_pair=holds.pair)
        return fields, []
    children = []
    for orbit in decomposition.nontrivial():
        label = "{" + ",".join(sorted(orbit.states)) + "}"
        # An orbit is strongly connected, so trimming keeps the same states
        # from every start, and refinement ignores the start: minimize once,
        # then re-root.  States with one minimized state share one key.
        states = sorted(orbit.states)
        sub, rename = _minimize(_orbit_automaton(orbit, _inside(orbit, edges), states[0]))
        for q in states:
            key = (sub.transitions, frozenset({rename[q]}), sub.finals)
            children.append((f"orbit {label} from {q}, minimized", key, sub))
    return fields, children


def _preorder(root: BkwNode):
    """Each node of the tree under `root` with its depth, parents first."""
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack.extend((child, depth + 1) for child in reversed(node.children))


def bkw_to_json(trace: BkwTrace) -> dict:
    path: list = [[]]  # path[d] collects the nodes at depth d under the current path
    for node, depth in _preorder(trace.steps):
        data = {
            "fingerprint": node.fingerprint,
            "S": list(node.consistent),
            "orbitProperty": node.orbit_property_holds,
            "failure": node.failure,
            "children": [],
        }
        if node.violating_orbit is not None:
            data["violatingOrbit"] = sorted(node.violating_orbit)
        if node.violating_pair is not None:
            data["violatingPair"] = list(node.violating_pair)
        if node.context is not None:
            data["context"] = node.context
        del path[depth + 1 :]
        path[depth].append(data)
        path.append(data["children"])
    return {"verdict": trace.verdict, "steps": path[0][0]}


def render_trace(trace: BkwTrace) -> str:
    lines = [f"verdict: {'pass' if trace.verdict else 'fail'}"]
    for node, depth in _preorder(trace.steps):
        pad = "  " * depth
        head = node.context or "input"
        lines.append(f"{pad}{head}: {node.fingerprint}, S={{{','.join(node.consistent)}}}")
        if node.failure == "orbit-property":
            orbit = ",".join(sorted(node.violating_orbit or ()))
            lines.append(f"{pad}  FAIL orbit property on {{{orbit}}} (pair {node.violating_pair})")
        elif node.failure == "no-consistent-symbol":
            lines.append(f"{pad}  FAIL single non-trivial orbit without a consistent symbol")
    return "\n".join(lines)


# --- language-level wrappers ----------------------------------------------------


def minimal_dfa(x: RegexAst | GlushkovAutomaton | BlockAutomaton) -> BlockAutomaton:
    """Minimal DFA of the denoted language over the base alphabet."""
    if isinstance(x, RegexAst):
        if isinstance(x, Empty):
            a = BlockAutomaton.make()
        else:
            a = glushkov(x).automaton
    elif isinstance(x, GlushkovAutomaton):
        a = x.automaton
    else:
        a = x
    return minimize(determinize(expand_blocks(a)))


def is_one_unambiguous(x: RegexAst | GlushkovAutomaton | BlockAutomaton) -> bool:
    """BKW test over the minimal DFA of the denoted language."""
    return bkw_test(minimal_dfa(x)).verdict


def certify_k_block_language(a: BlockAutomaton, k: int) -> bool:
    """Sufficient certificate that L(a) is k-block deterministic: the
    automaton is k-block deterministic and, reading each block as one
    letter, passes the BKW test."""
    return bool(is_k_block_deterministic(a, k)) and bkw_test(a).verdict
