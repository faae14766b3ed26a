"""The parameterized witness families and their claim suites."""

from itertools import combinations

import pytest

from blockdet import (
    WitnessSpec,
    accepts,
    build,
    equivalent,
    glushkov,
    is_deterministic,
    isomorphic,
    minimize,
    parse,
    to_text,
    verify,
)
from blockdet.witnesses import (
    FAMILIES,
    block_ak,
    block_bk,
    block_expr,
    chain_elimination_states,
    counterexample_fig7,
    hanwood_ek_expr,
    hanwood_fk_expr,
    hanwood_mk,
    reblocking_candidates,
    unary_aj,
    unary_ej_expr,
)

from blockdet.transform import eliminate_set

from conftest import min_dfa_two_block


class TestBuilders:
    def test_size_budget(self):
        # block_Ak(249999) has 10^6 states plus label letters, the most of any
        # family; larger parameters are refused before anything is built.
        builders = [hanwood_mk, hanwood_ek_expr, hanwood_fk_expr, block_ak, block_bk, block_expr,
                    unary_aj, unary_ej_expr]
        for k in (250_000, 10**20):
            for family in FAMILIES:
                with pytest.raises(ValueError, match="parameter must be <= 249999"):
                    build(WitnessSpec(family, k))
            for builder in builders:
                with pytest.raises(ValueError, match="parameter must be <= 249999"):
                    builder(k)

    def test_block_ak_k2_exact(self):
        a = block_ak(2)
        assert a.states == frozenset({"β2", "β1", "α2", "α1", "f"})
        assert a.initials == frozenset({"β2"})
        assert a.finals == frozenset({"β2", "α2", "f"})
        assert {(t.source, t.label.letters, t.target) for t in a.transitions} == {
            ("β2", "a", "α2"),
            ("β2", "b", "β1"),
            ("β1", "b", "f"),
            ("α2", "a", "α2"),
            ("α2", "b", "α1"),
            ("α1", "b", "f"),
            ("α1", "c", "β2"),
        }

    def test_unary_aj_j2_exact(self):
        a = unary_aj(2)
        assert len(a.states) == 5
        assert a.finals == frozenset({"α0", "α2"})
        assert accepts(a, "a" * 5) and accepts(a, "aa") and not accepts(a, "a")

    def test_counterexample(self):
        a = counterexample_fig7()
        assert a.states == frozenset({"i", "1", "2"})
        assert a.finals == frozenset({"1", "2"})

    def test_hanwood_m2_is_the_two_block_min_dfa(self):
        assert isomorphic(hanwood_mk(2), min_dfa_two_block())

    def test_expression_texts(self):
        assert to_text(hanwood_ek_expr(2)) == "[aa]*([ab]b+ba)b*"
        assert to_text(hanwood_ek_expr(3)) == "[aaa]*([aab]b+ba)b*"
        assert to_text(block_expr(2)) == "(a(eps+[bc]))*(eps+[bb])"
        assert to_text(unary_ej_expr(1)) == "(aaa)*(eps+a)"
        assert parse(to_text(hanwood_fk_expr(3))) == hanwood_fk_expr(3)

    def test_e2_matches_the_two_block_example(self):
        assert hanwood_ek_expr(2) == parse("[aa]*([ab]b+ba)b*")

    def test_build_dispatch(self):
        assert build(WitnessSpec("block_Bk", 3)) == block_bk(3)
        assert build(WitnessSpec("hanwood_Ek_expr", 2)) == hanwood_ek_expr(2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WitnessSpec("hanwood_Mk", 1)
        with pytest.raises(ValueError, match="^parameter must be >= 2$"):
            hanwood_mk(1)
        with pytest.raises(ValueError):
            WitnessSpec("block_Ak", 0)
        with pytest.raises(ValueError):
            WitnessSpec("made_up", 2)

    def test_all_families_build(self):
        for family in FAMILIES:
            value = build(WitnessSpec(family, 2))
            assert value is not None


class TestFamilyClaims:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_hanwood(self, k):
        report = verify(WitnessSpec("hanwood_Mk", k))
        assert report.passed, [c.name for c in report.claims if not c.ok]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_block(self, k):
        report = verify(WitnessSpec("block_Ak", k))
        assert report.passed, [c.name for c in report.claims if not c.ok]

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_unary(self, j):
        report = verify(WitnessSpec("unary_Aj", j))
        assert report.passed, [c.name for c in report.claims if not c.ok]

    def test_counterexample(self):
        report = verify(WitnessSpec("counterexample_fig7", 1))
        assert report.passed, [c.name for c in report.claims if not c.ok]

    def test_parameter_cap(self):
        with pytest.raises(ValueError):
            verify(WitnessSpec("unary_Aj", 7))
        verify(WitnessSpec("unary_Aj", 7), parameter_cap=7)


class TestFamilyFacts:
    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_unary_minimality(self, j):
        a = unary_aj(j)
        assert is_deterministic(a)
        assert isomorphic(minimize(a), a)
        assert len(a.states) == 2 * j + 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_bm_membership(self, k):
        a = block_ak(k)
        for m in range(1, k + 3):
            assert accepts(a, "b" * m) == (m == k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_no_narrower_reblocking_certifies(self, k):
        from blockdet import certify_k_block_language

        candidates = list(reblocking_candidates(k))
        assert candidates, "the search space must not be empty"
        assert all(not certify_k_block_language(c, k - 1) for c in candidates)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_reblocking_candidates_match_per_subset_elimination(self, k):
        # Each candidate is one elimination from its parent's; the reference
        # eliminates every subset of the chain states from scratch.
        a = block_ak(k)
        removable = sorted(chain_elimination_states(k))
        expected = set()
        for size in range(len(removable) + 1):
            for subset in combinations(removable, size):
                c = eliminate_set(a, subset)
                if c.width <= k - 1:
                    expected.add(c.transitions)
        found = [c.transitions for c in reblocking_candidates(k)]
        assert len(found) == len(set(found)) and set(found) == expected

    @pytest.mark.parametrize("k", [2, 3])
    def test_block_expression_language(self, k):
        assert equivalent(glushkov(block_expr(k)).automaton, block_ak(k))

    def test_chain_elimination_states(self):
        assert chain_elimination_states(3) == {"α1", "α2", "β1", "β2"}
