"""Orbit analysis, the BKW decision procedure for one-unambiguity, and the
alphabetic-image certificate for k-block deterministic languages."""

from __future__ import annotations

from collections.abc import Iterable

from .automaton import (
    BlockAutomaton,
    Transition,
    _edge_table,
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
from .syntax import RegexAst, _Record, _repr, _slot_setters


# --- orbits --------------------------------------------------------------------
#
# One Kosaraju pass over a per-state edge table (state -> its out-edges, as
# `BlockAutomaton.out_edges` holds it) yields every orbit with its out-gates
# and triviality.  The public functions read the automaton's own index and
# leave it unchanged; the BKW test builds one table per analysis from its
# memo key, with the index's builder `_edge_table`, and cuts it in place.


class Orbit(_Record):
    __slots__ = _fields = ("states", "trivial", "in_gates", "out_gates")

    def __init__(self, states: frozenset, trivial: bool, in_gates: frozenset, out_gates: frozenset):
        _set_states(self, states)
        _set_trivial(self, trivial)
        _set_in_gates(self, in_gates)
        _set_out_gates(self, out_gates)


_set_states, _set_trivial, _set_in_gates, _set_out_gates = _slot_setters(Orbit)


class OrbitDecomposition(_Record):
    __slots__ = _fields = ("orbits",)

    def __init__(self, orbits: tuple):
        _set_orbits(self, orbits)

    def orbit_of(self, state: str) -> Orbit:
        for orbit in self.orbits:
            if state in orbit.states:
                return orbit
        raise KeyError(state)

    def nontrivial(self) -> tuple:
        return tuple(o for o in self.orbits if not o.trivial)


(_set_orbits,) = _slot_setters(OrbitDecomposition)


def orbit_decomposition(a: BlockAutomaton) -> OrbitDecomposition:
    """Strongly connected components with gates and triviality flags."""
    entering = a.in_edges
    orbits = []
    for states, members, out, trivial in _orbits(a.states, a.out_edges, a.finals):
        in_gates = frozenset(
            q
            for q in states
            if q in a.initials or any(t.source not in members for t in entering[q])
        )
        orbits.append(Orbit(members, trivial, in_gates, frozenset(out)))
    return OrbitDecomposition(tuple(orbits))


def _orbits(roots: Iterable[str], edges: dict, finals: frozenset) -> list[tuple]:
    """The orbits (strongly connected components) of the states reachable
    from the roots, in sorted order, each as (states, members, out-gates,
    trivial): its sorted states, their frozenset, its sorted states that are
    final or have an edge leaving it, and whether it is a single state
    without a self-loop.

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
    orbits: list[tuple] = []
    swept: set = set()
    for root in reversed(order):
        if root not in swept:
            swept.add(root)
            states = [root]
            for q in states:  # grows while it is swept
                for p in entering[q]:
                    if p not in swept:
                        swept.add(p)
                        states.append(p)
            states.sort()
            members = frozenset(states)
            out = [
                q for q in states if q in finals or any(t.target not in members for t in edges[q])
            ]
            trivial = len(states) == 1 and all(t.target != root for t in edges[root])
            orbits.append((states, members, out, trivial))
    orbits.sort()  # orbits are disjoint, so their first states decide
    return orbits


class OrbitPropertyResult(_Record):
    __slots__ = _fields = ("holds", "orbit", "pair", "reason")

    def __init__(
        self,
        holds: bool,
        orbit: frozenset | None = None,
        pair: tuple | None = None,
        reason: str | None = None,
    ):
        _set_holds(self, holds)
        _set_orbit(self, orbit)
        _set_pair(self, pair)
        _set_reason(self, reason)

    def __bool__(self) -> bool:
        return self.holds


_set_holds, _set_orbit, _set_pair, _set_reason = _slot_setters(OrbitPropertyResult)


def orbit_property(a: BlockAutomaton) -> OrbitPropertyResult:
    """All out-gates of each orbit agree on finality and on every transition
    leaving the orbit."""
    return _orbit_property(_orbits(a.states, a.out_edges, a.finals), a.out_edges, a.finals)


def _orbit_property(orbits: list, edges: dict, finals: frozenset) -> OrbitPropertyResult:
    for _, members, out, _ in orbits:
        if len(out) < 2:
            continue
        leaving = {
            g: {(t.label, t.target) for t in edges[g] if t.target not in members} for g in out
        }
        for p in out:
            for q in out:
                if p == q:
                    continue
                if p in finals and q not in finals:
                    return OrbitPropertyResult(
                        False, members, (p, q), f"{p} is final but {q} is not"
                    )
                for t in edges[p]:
                    if t.target not in members and (t.label, t.target) not in leaving[q]:
                        return OrbitPropertyResult(
                            False, members, (p, q), f"{p} leaves via {t} but {q} does not"
                        )
    return OrbitPropertyResult(True)


def consistent_symbols(a: BlockAutomaton) -> frozenset:
    """Symbols whose transitions from every final state share one target."""
    if a.states and not is_deterministic(a):
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
    if state not in a.states:
        raise ValueError(f"unknown state: {state}")
    edges = a.out_edges
    ((states, members, out, _),) = [o for o in _orbits([state], edges, a.finals) if state in o[1]]
    inside = [t for q in states for t in edges[q] if t.target in members]
    return _trusted(states, {state}, out, inside)


# --- the BKW test -----------------------------------------------------------------


class BkwNode(_Record):
    """One step of the BKW test: the analysis of one automaton, which every
    parent shares, so it compares by identity.  Its repr leaves out the
    ``contexts``, one per child saying how this analysis reaches it, and
    the ``children``."""

    __slots__ = _fields = (
        "fingerprint",
        "consistent",
        "orbit_property_holds",
        "failure",
        "violating_orbit",
        "violating_pair",
        "contexts",
        "children",
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        fingerprint: str,
        consistent: tuple,
        orbit_property_holds: bool | None,
        failure: str | None,
        violating_orbit: frozenset | None = None,
        violating_pair: tuple | None = None,
        contexts: tuple = (),
        children: tuple = (),
    ):
        _set_fingerprint(self, fingerprint)
        _set_consistent(self, consistent)
        _set_orbit_property_holds(self, orbit_property_holds)
        _set_failure(self, failure)
        _set_violating_orbit(self, violating_orbit)
        _set_violating_pair(self, violating_pair)
        _set_contexts(self, contexts)
        _set_children(self, children)

    def __repr__(self) -> str:
        return _repr(self, self._fields[:-2])

    @property
    def ok(self) -> bool:
        return self.failure is None


(
    _set_fingerprint,
    _set_consistent,
    _set_orbit_property_holds,
    _set_failure,
    _set_violating_orbit,
    _set_violating_pair,
    _set_contexts,
    _set_children,
) = _slot_setters(BkwNode)


class BkwTrace(_Record):
    __slots__ = _fields = ("verdict", "steps")

    def __init__(self, verdict: bool, steps: BkwNode):
        _set_verdict(self, verdict)
        _set_steps(self, steps)


_set_verdict, _set_steps = _slot_setters(BkwTrace)


def bkw_test(a: BlockAutomaton) -> BkwTrace:
    """Decision procedure for one-unambiguity.

    On a minimal DFA the verdict decides one-unambiguity of the language;
    on a merely deterministic automaton a passing verdict is a sufficient
    certificate.  Each distinct automaton met is analysed once, children
    first, into one node that every parent shares.
    """
    if a.states and not is_deterministic(a):
        raise ValueError("the BKW test needs a deterministic automaton")
    a = trim(a)
    root = (a.transitions, a.initials, a.finals)  # determines a trimmed automaton
    steps: dict = {}  # key -> (its node's fields, its children's keys), then its node

    def successors(key):
        steps[key] = _, keys = _bkw_step(key)
        return keys

    for key in postorder([root], successors):  # children first
        fields, keys = steps[key]
        children = tuple([steps[c] for c in keys])
        if not all(child.ok for child in children):
            fields["failure"] = "recursion"
        steps[key] = BkwNode(**fields, children=children)
    node = steps[root]
    return BkwTrace(node.ok, node)


def _bkw_step(key: tuple) -> tuple[dict, list]:
    """The fields of the node of the trimmed automaton that ``key`` =
    (transitions, initials, finals) determines, with its children's
    contexts, and its children's keys.

    One edge table serves the whole analysis: the S-cut drops the
    consistent symbols from the finals' rows in place, and the orbits,
    their gates and each orbit's refinement read the cut table."""
    transitions, initials, finals = key
    states = initials.union([t.target for t in transitions])  # all are reached
    fingerprint = f"{len(states)} states, {len(transitions)} transitions"
    fields = dict(fingerprint=fingerprint, consistent=(), orbit_property_holds=True, failure=None)
    edges = _edge_table(states, transitions, 0)
    symbols = _consistent([edges[f] for f in finals])
    _cut(edges, finals, symbols)
    # A shortest path to a final state leaves no final state, so the cut
    # keeps every state co-accessible: its trim is what the initial reaches.
    orbits = _orbits(initials, edges, finals)
    if len(orbits) == 1 and not symbols and not orbits[0][3]:
        return {**fields, "orbit_property_holds": None, "failure": "no-consistent-symbol"}, []
    fields["consistent"] = tuple(sorted(b.letters for b in symbols))
    holds = _orbit_property(orbits, edges, finals)
    if not holds:
        fields.update(orbit_property_holds=False, failure="orbit-property",
                      violating_orbit=holds.orbit, violating_pair=holds.pair)
        return fields, []
    contexts, keys = [], []
    for states, members, out, trivial in orbits:
        if trivial:
            continue
        # An orbit is strongly connected, so its automaton is trimmed from
        # every start, and refinement ignores the start: refine once, then
        # re-root.  States with one merged state share one key.
        gates = set(out)
        rows = [(q, q in gates, [t for t in edges[q] if t.target in members]) for q in states]
        rename = _quotient(rows)
        new = tuple.__new__  # a Transition past its constructor: the parts are valid
        inside = frozenset(
            [new(Transition, (rename[q], t.label, rename[t.target])) for q, _, row in rows for t in row]
        )
        merged_finals = frozenset([rename[q] for q in out])
        label = "{" + ",".join(states) + "}"
        for q in states:
            contexts.append(f"orbit {label} from {q}, minimized")
            keys.append((inside, frozenset([rename[q]]), merged_finals))
    fields["contexts"] = tuple(contexts)
    return fields, keys


def _steps(trace: BkwTrace) -> tuple[list, dict]:
    """The distinct nodes of the trace, each once, breadth-first in
    first-visit order, and their step numbers."""
    nodes, number = [trace.steps], {trace.steps: 0}
    for node in nodes:  # grows while it is walked
        for child in node.children:
            if child not in number:
                number[child] = len(nodes)
                nodes.append(child)
    return nodes, number


def bkw_to_json(trace: BkwTrace) -> dict:
    nodes, number = _steps(trace)
    steps = []
    for node in nodes:
        data = {
            "fingerprint": node.fingerprint,
            "S": list(node.consistent),
            "orbitProperty": node.orbit_property_holds,
            "failure": node.failure,
            "children": [
                {"context": w, "step": number[c]} for w, c in zip(node.contexts, node.children)
            ],
        }
        if node.violating_orbit is not None:
            data["violatingOrbit"] = sorted(node.violating_orbit)
        if node.violating_pair is not None:
            data["violatingPair"] = list(node.violating_pair)
        steps.append(data)
    return {"verdict": trace.verdict, "steps": steps}


def render_trace(trace: BkwTrace) -> str:
    lines = [f"verdict: {'pass' if trace.verdict else 'fail'}"]
    nodes, number = _steps(trace)
    for i, node in enumerate(nodes):
        lines.append(f"step {i}: {node.fingerprint}, S={{{','.join(node.consistent)}}}")
        if node.failure == "orbit-property":
            orbit = ",".join(sorted(node.violating_orbit or ()))
            lines.append(f"  FAIL orbit property on {{{orbit}}} (pair {node.violating_pair})")
        elif node.failure == "no-consistent-symbol":
            lines.append("  FAIL single non-trivial orbit without a consistent symbol")
        lines += [f"  {w}: step {number[c]}" for w, c in zip(node.contexts, node.children)]
    return "\n".join(lines)


# --- language-level wrappers ----------------------------------------------------


def minimal_dfa(x: RegexAst | GlushkovAutomaton | BlockAutomaton) -> BlockAutomaton:
    """Minimal DFA of the denoted language over the base alphabet."""
    if isinstance(x, RegexAst):
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
