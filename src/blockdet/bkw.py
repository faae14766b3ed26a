"""Orbit analysis, the BKW decision procedure for one-unambiguity, and the
alphabetic-image certificate for k-block deterministic languages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .automaton import (
    BlockAutomaton,
    Transition,
    _quotient,
    _trusted,
    determinize,
    expand_blocks,
    is_deterministic,
    minimize,
    postorder,
    trim,
)
from .determinism import is_k_block_deterministic
from .glushkov import GlushkovAutomaton, glushkov
from .syntax import Empty, RegexAst


# --- orbits --------------------------------------------------------------------
#
# The helpers read one per-state edge table (state -> its out-edges, as
# `BlockAutomaton.out_edges` holds it).  The public functions read the
# automaton's own index and leave it unchanged; the BKW test builds one
# table per analysis from its memo key and cuts it in place.


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
    edges = a.out_edges
    entering = a.in_edges
    components = _components(a.states, edges)
    orbits = []
    for component, gates in zip(components, _out_gates(components, edges, a.finals)):
        members = frozenset(component)
        in_gates = frozenset(
            q
            for q in component
            if q in a.initials or any(t.source not in members for t in entering[q])
        )
        orbits.append(Orbit(members, _trivial(component, edges), in_gates, frozenset(gates)))
    return OrbitDecomposition(tuple(orbits))


def _components(roots: Iterable[str], edges: dict) -> list[list]:
    """The strongly connected components of the states reachable from the
    roots, each sorted, in sorted order.

    Kosaraju's two passes.  The forward pass is one `postorder` walk that
    hides every state entered earlier, which is on the path or finished,
    so it walks through cycles; the backward pass sweeps one component at
    a time along the reversed edges of the states walked, latest finisher
    first."""
    entered: set = set()

    def unentered(q):
        entered.add(q)
        return [t.target for t in edges[q] if t.target not in entered]

    order = postorder(roots, unentered)
    entering: dict = {q: [] for q in order}
    for q in order:
        for t in edges[q]:
            entering[t.target].append(q)
    components: list[list] = []
    swept: set = set()
    for root in reversed(order):
        if root not in swept:
            swept.add(root)
            component = [root]
            for q in component:  # grows while it is swept
                for p in entering[q]:
                    if p not in swept:
                        swept.add(p)
                        component.append(p)
            component.sort()
            components.append(component)
    components.sort()
    return components


def _trivial(component: list, edges: dict) -> bool:
    """A single state without a self-loop."""
    return len(component) == 1 and all(t.target != component[0] for t in edges[component[0]])


def _out_gates(components: list, edges: dict, finals: frozenset) -> list[list]:
    """Per component, its states that are final or have an edge leaving it."""
    gates = []
    for component in components:
        members = set(component)
        gates.append(
            [q for q in component if q in finals or any(t.target not in members for t in edges[q])]
        )
    return gates


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
    edges = a.out_edges
    components = _components(a.states, edges)
    return _orbit_property(components, _out_gates(components, edges, a.finals), edges, a.finals)


def _orbit_property(
    components: list, gates: list, edges: dict, finals: frozenset
) -> OrbitPropertyResult:
    for component, out in zip(components, gates):
        if len(out) < 2:
            continue
        members = set(component)
        leaving = {
            g: {(t.label, t.target) for t in edges[g] if t.target not in members} for g in out
        }
        for p in out:
            for q in out:
                if p == q:
                    continue
                if p in finals and q not in finals:
                    return OrbitPropertyResult(
                        False, frozenset(component), (p, q), f"{p} is final but {q} is not"
                    )
                for b, r in sorted(leaving[p]):
                    if (b, r) not in leaving[q]:
                        return OrbitPropertyResult(
                            False,
                            frozenset(component),
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
    return _consistent([a.out_edges[f] for f in a.finals])


def _consistent(rows: list) -> frozenset:
    """The labels that every row of out-edges sends to one shared target."""
    if not rows:
        return frozenset()
    shared = set.intersection(*[{(t.label, t.target) for t in row} for row in rows])
    return frozenset([label for label, _ in shared])


def s_cut(a: BlockAutomaton, symbols: Iterable) -> BlockAutomaton:
    """Remove the `symbols`-labelled transitions leaving final states, then trim."""
    cut_set = frozenset(symbols)
    if cut_set and not cut_set <= consistent_symbols(a):
        raise ValueError("s_cut needs a consistent symbol set")
    edges = dict(a.out_edges)  # cut a copy: the automaton's index is shared
    _cut(edges, a.finals, cut_set)
    kept = [t for row in edges.values() for t in row]
    return trim(_trusted(a.states, a.initials, a.finals, kept))


def _cut(edges: dict, finals: frozenset, symbols: frozenset) -> None:
    """Drop the `symbols`-labelled edges of the final states' rows, in place."""
    for f in finals:
        edges[f] = [t for t in edges[f] if t.label not in symbols]


def orbit_automaton(a: BlockAutomaton, state: str) -> BlockAutomaton:
    """Restrict to the orbit of `state`, making it initial and the orbit's
    out-gates final."""
    edges = a.out_edges
    (component,) = [c for c in _components([state], edges) if state in c]
    (gates,) = _out_gates([component], edges, a.finals)
    members = set(component)
    inside = [t for q in component for t in edges[q] if t.target in members]
    return _trusted(component, {state}, gates, inside)


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
    steps: dict = {}

    def successors(key):
        steps[key] = _, edges = _bkw_step(key)
        return [child for _, child in edges]

    for key in postorder([root], successors):  # children first
        fields, edges = steps[key]
        fields["children"] = tuple(BkwNode(**steps[c][0], context=w) for w, c in edges)
        if not all(child.ok for child in fields["children"]):
            fields["failure"] = "recursion"
    node = BkwNode(**steps[root][0])
    return BkwTrace(node.ok, node)


def _bkw_step(key: tuple) -> tuple[dict, list]:
    """The fields of the node of the trimmed automaton that ``key`` =
    (transitions, initials, finals) determines, but its context and
    children, and per child its context and key.

    One edge table serves the whole analysis: the S-cut drops the
    consistent symbols from the finals' rows in place, and the orbits,
    their gates and each orbit's refinement read the cut table."""
    transitions, initials, finals = key
    states = initials.union([t.target for t in transitions])  # all are reached
    fingerprint = f"{len(states)} states, {len(transitions)} transitions"
    fields = dict(fingerprint=fingerprint, consistent=(), orbit_property_holds=True, failure=None)
    if not states:
        return fields, []
    edges: dict = {q: [] for q in states}
    for t in transitions:
        edges[t.source].append(t)
    symbols = _consistent([edges[f] for f in finals])
    _cut(edges, finals, symbols)
    # A shortest path to a final state leaves no final state, so the cut
    # keeps every state co-accessible: its trim is what the initial reaches.
    components = _components(initials, edges)
    if len(components) == 1 and not symbols and not _trivial(components[0], edges):
        return {**fields, "orbit_property_holds": None, "failure": "no-consistent-symbol"}, []
    fields["consistent"] = tuple(sorted(b.letters for b in symbols))
    gates = _out_gates(components, edges, finals)
    holds = _orbit_property(components, gates, edges, finals)
    if not holds:
        fields.update(orbit_property_holds=False, failure="orbit-property",
                      violating_orbit=holds.orbit, violating_pair=holds.pair)
        return fields, []
    children = []
    for component, out in zip(components, gates):
        if _trivial(component, edges):
            continue
        # An orbit is strongly connected, so its automaton is trimmed from
        # every start, and refinement ignores the start: refine once, then
        # re-root.  States with one merged state share one key.
        members, gate_set = set(component), set(out)
        rows = [
            (q, q in gate_set, [t for t in edges[q] if t.target in members]) for q in component
        ]
        rename = _quotient(rows)
        inside = frozenset(
            [Transition(rename[q], t.label, rename[t.target]) for q, _, row in rows for t in row]
        )
        merged_finals = frozenset([rename[q] for q in out])
        label = "{" + ",".join(component) + "}"
        for q in component:
            key = (inside, frozenset([rename[q]]), merged_finals)
            children.append((f"orbit {label} from {q}, minimized", key))
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
