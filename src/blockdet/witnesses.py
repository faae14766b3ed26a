"""Parameterized witness families separating the determinism classes, with claim suites."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
from .bkw import certify_k_block_language, minimal_dfa
from .determinism import (
    is_k_block_deterministic,
    is_k_block_deterministic_expression,
    is_k_lookahead_deterministic_expression,
)
from .glushkov import glushkov
from .syntax import RegexAst, parse
from .transform import eliminable, eliminate, eliminate_set

DEFAULT_PARAMETER_CAP = 6


@dataclass(frozen=True)
class WitnessSpec:
    family: str
    parameter: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        minimum = 2 if self.family.startswith("hanwood") else 1
        if self.parameter < minimum:
            raise ValueError(f"{self.family} needs a parameter >= {minimum}")


def build(spec: WitnessSpec) -> BlockAutomaton | RegexAst:
    return _BUILDERS[spec.family](spec.parameter)


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
    the impossibility claim at width k-1)."""
    a = block_ak(k)
    removable = sorted(chain_elimination_states(k))
    for size in range(len(removable) + 1):
        for subset in combinations(removable, size):
            candidate = eliminate_set(a, subset)
            if candidate.width <= k - 1:
                yield candidate


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


_BUILDERS = {  # in the order the CLI usage text lists the families
    "hanwood_Mk": hanwood_mk,
    "hanwood_Ek_expr": hanwood_ek_expr,
    "hanwood_Fk_expr": hanwood_fk_expr,
    "block_Ak": block_ak,
    "block_Bk": block_bk,
    "block_expr": block_expr,
    "unary_Aj": unary_aj,
    "unary_Ej_expr": unary_ej_expr,
    "counterexample_fig7": lambda _k: counterexample_fig7(),
}
FAMILIES = tuple(_BUILDERS)


def _check(parameter: int, minimum: int):
    if parameter < minimum:
        raise ValueError(f"parameter must be >= {minimum}")


# --- claim suites -----------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    name: str
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    family: str
    parameter: int
    claims: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.claims)


def verify(spec: WitnessSpec, parameter_cap: int = DEFAULT_PARAMETER_CAP) -> VerificationReport:
    """Run the claim suite of the spec's family group."""
    if spec.parameter > parameter_cap:
        raise ValueError(
            f"parameter {spec.parameter} exceeds the verification cap {parameter_cap}"
        )
    k = spec.parameter
    if spec.family.startswith("hanwood"):
        claims = _verify_hanwood(k)
    elif spec.family.startswith("block"):
        claims = _verify_block(k)
    elif spec.family.startswith("unary"):
        claims = _verify_unary(k)
    else:
        claims = _verify_fig7()
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
    ej = unary_ej_expr(j)
    min_dfa = minimal_dfa(ej)
    return [
        Claim("A_j is deterministic and trimmed", is_deterministic(aj) and trim(aj) == aj),
        Claim(
            "A_j is minimal with 2j+1 states",
            isomorphic(minimize(aj), aj) and len(aj.states) == 2 * j + 1,
        ),
        Claim("the minimal DFA of E_j is isomorphic to A_j", isomorphic(min_dfa, aj)),
        Claim(
            "E_j is (j+1)-lookahead deterministic",
            bool(is_k_lookahead_deterministic_expression(ej, j + 1)),
        ),
        Claim(
            "E_j is not j-lookahead deterministic",
            not is_k_lookahead_deterministic_expression(ej, j),
        ),
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
