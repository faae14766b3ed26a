"""Parameterized witness families separating the determinism classes, with claim suites."""

from __future__ import annotations

from .automaton import (
    BlockAutomaton,
    accepts,
    equivalent,
    is_deterministic,
    isomorphic,
    minimize,
    standardize,
    trim,
)
from .bkw import bkw_test, certify_k_block_language, minimal_dfa
from .determinism import (
    is_k_block_deterministic,
    is_k_block_deterministic_expression,
    is_k_lookahead_deterministic,
)
from .glushkov import glushkov
from .syntax import RegexAst, _Record, _slot_setters, parse
from .transform import eliminable, eliminate, eliminate_set

DEFAULT_PARAMETER_CAP = 6
# The largest member per parameter is block_Ak's, with 4k + 4 states plus
# label letters, so this cap keeps every member within 10**6 of them.
_MAX_PARAMETER = 249_999


class WitnessSpec(_Record):
    __slots__ = _fields = ("family", "parameter")

    def __init__(self, family: str, parameter: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
        minimum = _FAMILIES[family][1]
        if parameter < minimum:
            raise ValueError(f"{family} needs a parameter >= {minimum}")
        _set_family(self, family)
        _set_parameter(self, parameter)


_set_family, _set_parameter = _slot_setters(WitnessSpec)


def build(spec: WitnessSpec) -> BlockAutomaton | RegexAst:
    return _FAMILIES[spec.family][0](spec.parameter)


# --- the Han-Wood family: one language, shrinking block width -------------------


def hanwood_mk(k: int) -> BlockAutomaton:
    """Minimal DFA with an a-cycle q_k .. q_1 and tails over b."""
    _check(k, 2)
    cycle = [f"q{i}" for i in range(k, 0, -1)]
    transitions = [(cycle[i], "a", cycle[i + 1]) for i in range(len(cycle) - 1)]
    transitions += [
        (f"q{1}", "a", f"q{k}"),
        (f"q{k}", "b", "1"),
        (f"q{1}", "b", "2"),
        ("1", "a", "3"),
        ("2", "b", "3"),
        ("3", "b", "3"),
    ]
    return BlockAutomaton.make(
        states=cycle + ["1", "2", "3"],
        initials={f"q{k}"},
        finals={"3"},
        transitions=transitions,
    )


def hanwood_ek_expr(k: int) -> RegexAst:
    """([a^k])*([a^{k-1}b]b + ba)b*"""
    _check(k, 2)
    return parse(f"[{'a' * k}]*([{'a' * (k - 1)}b]b+ba)b*")


def hanwood_fk_expr(k: int) -> RegexAst:
    """(a^{k-1}([aa]a^{k-2})*([ab]a + bb) + ba)b*"""
    _check(k, 2)
    return parse(f"({'a' * (k - 1)}([aa]{'a' * (k - 2)})*([ab]a+bb)+ba)b*")


# --- the block-hierarchy family -----------------------------------------------


def block_ak(k: int) -> BlockAutomaton:
    """Deterministic automaton over {a,b,c} with two b-chains of length k."""
    _check(k, 1)
    states = ["f"] + [f"α{j}" for j in range(1, k + 1)] + [f"β{j}" for j in range(1, k + 1)]
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
    return BlockAutomaton.make(
        states=states,
        initials={f"β{k}"},
        finals={"f", f"α{k}", f"β{k}"},
        transitions=transitions,
    )


def block_bk(k: int) -> BlockAutomaton:
    """The k-block deterministic automaton left after eliminating both chains."""
    _check(k, 1)
    return BlockAutomaton.make(
        states={f"β{k}", f"α{k}", "f"},
        initials={f"β{k}"},
        finals={f"β{k}", f"α{k}", "f"},
        transitions=[
            (f"β{k}", "b" * k, "f"),
            (f"β{k}", "a", f"α{k}"),
            (f"α{k}", "a", f"α{k}"),
            (f"α{k}", "b" * k, "f"),
            (f"α{k}", "b" * (k - 1) + "c", f"β{k}"),
        ],
    )


def block_expr(k: int) -> RegexAst:
    """(a(eps+[b^{k-1}c]))*(eps+[b^k])"""
    _check(k, 1)
    return parse(f"(a(eps+[{'b' * (k - 1)}c]))*(eps+[{'b' * k}])")


def chain_elimination_states(k: int) -> set[str]:
    """The states removed on the way from the chain automaton to its k-block
    form: both b-chains except their top states."""
    return {f"α{j}" for j in range(1, k)} | {f"β{j}" for j in range(1, k)}


def reblocking_candidates(k: int):
    """Every automaton reachable from the chain automaton by a valid state
    elimination whose width stays below k (the constructed candidates for
    the impossibility claim at width k-1).

    The subsets of the chain states are walked depth-first, each in
    ascending state order, the order `eliminate_set` takes: a subset's
    automaton is one `eliminate` from that of the subset without its last
    state, so each of the 2^(2k-2) - 1 eliminations is made once."""
    removable = sorted(chain_elimination_states(k))
    stack = [(block_ak(k), 0)]  # an automaton, and the first state it may still eliminate
    while stack:
        a, start = stack.pop()
        if a.width <= k - 1:
            yield a
        for i in range(start, len(removable)):
            stack.append((eliminate(a, removable[i]), i + 1))


# --- the unary lookahead family --------------------------------------------------


def unary_aj(j: int) -> BlockAutomaton:
    """Unary cycle of length 2j+1 with finals at offsets 0 and j."""
    _check(j, 1)
    states = [f"α{i}" for i in range(2 * j + 1)]
    transitions = [(states[i], "a", states[(i + 1) % len(states)]) for i in range(len(states))]
    return BlockAutomaton.make(
        states=states,
        initials={"α0"},
        finals={"α0", f"α{j}"},
        transitions=transitions,
    )


def unary_ej_expr(j: int) -> RegexAst:
    """(a^{2j+1})*(eps + a^j)"""
    _check(j, 1)
    return parse(f"({'a' * (2 * j + 1)})*(eps+{'a' * j})")


# --- the state-elimination counter-example ----------------------------------------


def counterexample_fig7() -> BlockAutomaton:
    """Minimal DFA none of whose states can be eliminated directly."""
    return BlockAutomaton.make(
        states={"i", "1", "2"},
        initials={"i"},
        finals={"1", "2"},
        transitions=[("i", "a", "1"), ("i", "b", "2"), ("1", "b", "i")],
    )


def _fig7(k: int) -> BlockAutomaton:
    """counterexample_fig7, which reads no parameter but refuses one past
    the size budget like every other family."""
    _check(k, 1)
    return counterexample_fig7()


def _check(parameter: int, minimum: int):
    """Refuse a parameter below the family's minimum or past the size
    budget, before anything is built."""
    if parameter < minimum:
        raise ValueError(f"parameter must be >= {minimum}")
    if parameter > _MAX_PARAMETER:
        raise ValueError(f"parameter must be <= {_MAX_PARAMETER}")


# --- claim suites -----------------------------------------------------------------


class Claim(_Record):
    __slots__ = _fields = ("name", "ok")

    def __init__(self, name: str, ok: bool):
        _set_name(self, name)
        _set_ok(self, ok)


_set_name, _set_ok = _slot_setters(Claim)


class VerificationReport(_Record):
    __slots__ = _fields = ("family", "parameter", "claims")

    def __init__(self, family: str, parameter: int, claims: tuple):
        _set_report_family(self, family)
        _set_report_parameter(self, parameter)
        _set_claims(self, claims)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.claims)


_set_report_family, _set_report_parameter, _set_claims = _slot_setters(VerificationReport)


def verify(spec: WitnessSpec, parameter_cap: int = DEFAULT_PARAMETER_CAP) -> VerificationReport:
    """Run the claim suite of the spec's family group."""
    if spec.parameter > parameter_cap:
        raise ValueError(
            f"parameter {spec.parameter} exceeds the verification cap {parameter_cap}"
        )
    claims = _FAMILIES[spec.family][2](spec.parameter)
    return VerificationReport(spec.family, spec.parameter, tuple(claims))


def _verify_hanwood(k: int) -> list[Claim]:
    mk = hanwood_mk(k)
    ek = hanwood_ek_expr(k)
    fk = hanwood_fk_expr(k)
    return [
        Claim("M_k is deterministic and trimmed", is_deterministic(mk) and trim(mk) == mk),
        Claim("M_k is minimal", isomorphic(minimize(mk), mk)),
        Claim("L(M_k) = L(E_k)", equivalent(mk, glushkov(ek).automaton)),
        Claim("F_k is 2-block deterministic", bool(is_k_block_deterministic_expression(fk, 2))),
        Claim("L(F_k) = L(M_k)", equivalent(glushkov(fk).automaton, mk)),
    ]


def _verify_block(k: int) -> list[Claim]:
    ak = block_ak(k)
    bk = block_bk(k)
    expr = block_expr(k)
    claims = [
        Claim("A_k is deterministic and trimmed", is_deterministic(ak) and trim(ak) == ak),
        Claim("eliminating both chains yields B_k", eliminate_set(ak, chain_elimination_states(k)) == bk),
        Claim("B_k certifies k-block determinism", certify_k_block_language(bk, k)),
        Claim(
            "the block expression is k-block deterministic",
            bool(is_k_block_deterministic_expression(expr, k)),
        ),
        Claim("the block expression specifies L(A_k)", equivalent(glushkov(expr).automaton, ak)),
        Claim(
            "b^m (m >= 1) is accepted only for m = k",
            all(accepts(ak, "b" * m) == (m == k) for m in range(1, k + 3)),
        ),
    ]
    if k >= 2:
        claims.append(
            Claim(
                "no candidate re-blocking certifies at k-1",
                all(not certify_k_block_language(c, k - 1) for c in reblocking_candidates(k)),
            )
        )
    return claims


def _verify_unary(j: int) -> list[Claim]:
    aj = unary_aj(j)
    g = glushkov(unary_ej_expr(j)).automaton
    min_dfa = minimal_dfa(g)
    return [
        Claim("A_j is deterministic and trimmed", is_deterministic(aj) and trim(aj) == aj),
        Claim(
            "A_j is minimal with 2j+1 states",
            isomorphic(minimize(aj), aj) and len(aj.states) == 2 * j + 1,
        ),
        Claim("the minimal DFA of E_j is isomorphic to A_j", isomorphic(min_dfa, aj)),
        Claim(
            "E_j is (j+1)-lookahead deterministic",
            bool(is_k_lookahead_deterministic(g, j + 1)),
        ),
        Claim(
            "E_j is not j-lookahead deterministic",
            not is_k_lookahead_deterministic(g, j),
        ),
        # A_j is minimal, so the BKW test on it decides the language.
        Claim("L(A_j) is not one-unambiguous", not bkw_test(aj).verdict),
    ]


def _verify_fig7() -> list[Claim]:
    fig7 = counterexample_fig7()
    standardized = standardize(fig7)
    rewired = eliminate(standardized, "i")
    return [
        Claim("the automaton is minimal", isomorphic(minimize(fig7), fig7)),
        Claim("no state is eliminable", not any(eliminable(fig7, q) for q in fig7.states)),
        Claim("the old initial is eliminable after standardization", eliminable(standardized, "i")),
        Claim("elimination yields a 2-block deterministic automaton", bool(is_k_block_deterministic(rewired, 2))),
        Claim("the result certifies 2-block determinism", certify_k_block_language(rewired, 2)),
    ]


# Each family once: its builder, its least parameter and its group's claim
# suite, in the order the CLI usage text lists the families.
_FAMILIES = {
    "hanwood_Mk": (hanwood_mk, 2, _verify_hanwood),
    "hanwood_Ek_expr": (hanwood_ek_expr, 2, _verify_hanwood),
    "hanwood_Fk_expr": (hanwood_fk_expr, 2, _verify_hanwood),
    "block_Ak": (block_ak, 1, _verify_block),
    "block_Bk": (block_bk, 1, _verify_block),
    "block_expr": (block_expr, 1, _verify_block),
    "unary_Aj": (unary_aj, 1, _verify_unary),
    "unary_Ej_expr": (unary_ej_expr, 1, _verify_unary),
    "counterexample_fig7": (_fig7, 1, lambda k: _verify_fig7()),
}
FAMILIES = tuple(_FAMILIES)
