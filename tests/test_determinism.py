"""Determinism predicates, lookahead search, and the brute-force oracles."""

import random

import pytest

from blockdet import (
    BlockAutomaton,
    glushkov,
    is_deterministic,
    is_k_block_deterministic,
    is_k_block_deterministic_expression,
    is_k_lookahead_deterministic,
    is_k_lookahead_deterministic_expression,
    mark,
    marked_language_oracle,
    min_lookahead,
    parse,
    width,
)
from blockdet.syntax import Empty
from blockdet.witnesses import block_bk

from conftest import (
    glushkov_two_block,
    glushkov_two_lookahead,
    glushkov_union_tail,
    min_dfa_two_block,
    random_expression,
    reference_postorder,
)


class TestIsDeterministic:
    def test_union_tail_is_not(self):
        # The initial state carries two a-transitions (to a_1 and to a_3).
        assert not is_deterministic(glushkov_union_tail())

    def test_two_lookahead_is_not(self):
        assert not is_deterministic(glushkov_two_lookahead())

    def test_min_dfa_is(self):
        assert is_deterministic(min_dfa_two_block())

    def test_single_state(self):
        a = BlockAutomaton.make(states={"q"}, initials={"q"}, finals=set())
        assert is_deterministic(a)

    def test_two_initials(self):
        a = BlockAutomaton.make(states={"p", "q"}, initials={"p", "q"})
        assert not is_deterministic(a)


class TestKBlock:
    def test_two_block_example(self):
        assert is_k_block_deterministic(glushkov_two_block(), 2).verdict

    def test_prefix_labels_violate(self):
        a = BlockAutomaton.make(
            states={"p", "q", "r"},
            initials={"p"},
            finals={"q", "r"},
            transitions=[("p", "a", "q"), ("p", "ab", "r")],
        )
        result = is_k_block_deterministic(a, 2)
        assert not result.verdict
        ((t1, t2),) = result.violations
        assert {t1.label.letters, t2.label.letters} == {"a", "ab"}
        assert t1.source == t2.source == "p"

    def test_b3_width_bound(self):
        b3 = block_bk(3)
        assert is_k_block_deterministic(b3, 3).verdict
        assert not is_k_block_deterministic(b3, 2).verdict

    def test_equal_labels_to_distinct_targets_violate(self):
        assert not is_k_block_deterministic(glushkov_union_tail(), 1).verdict

    def test_one_block_equals_deterministic(self, block_corpus):
        for expr in block_corpus:
            a = glushkov(expr).automaton
            if a.width > 1:
                continue
            assert is_k_block_deterministic(a, 1).verdict == is_deterministic(a)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            is_k_block_deterministic(min_dfa_two_block(), 0)

    def test_violations_are_all_prefix_pairs(self):
        # The definition: every ordered pair of one state's transitions
        # whose labels are equal or one a prefix of the other.
        rng = random.Random(1977)
        for _ in range(300):
            a = _random_block_automaton(rng)
            expected = tuple(
                sorted(
                    (t1, t2)
                    for t1 in a.transitions
                    for t2 in a.transitions
                    if t1 < t2
                    and t1.source == t2.source
                    and (
                        t1.label.letters.startswith(t2.label.letters)
                        or t2.label.letters.startswith(t1.label.letters)
                    )
                )
            )
            for k in (1, 2, 3):
                result = is_k_block_deterministic(a, k)
                assert result.violations == expected, a
                assert result.verdict == (a.width <= k and not expected)


class TestKLookahead:
    def test_two_lookahead_example(self):
        a = glushkov_two_lookahead()
        assert is_k_lookahead_deterministic(a, 2).verdict
        assert not is_k_lookahead_deterministic(a, 1).verdict

    def test_deterministic_is_one_lookahead(self):
        assert is_k_lookahead_deterministic(min_dfa_two_block(), 1).verdict

    def test_unary_witness(self):
        g = glushkov(parse("(aaaaa)*(eps+aa)")).automaton
        assert is_k_lookahead_deterministic(g, 3).verdict
        assert not is_k_lookahead_deterministic(g, 2).verdict

    def test_width_rejected(self):
        with pytest.raises(ValueError):
            is_k_lookahead_deterministic(glushkov_two_block(), 2)
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            is_k_lookahead_deterministic(glushkov(parse("a")).automaton, 0)

    def test_monotone_in_k(self, width1_corpus):
        for expr in width1_corpus:
            a = glushkov(expr).automaton
            held = False
            for k in range(1, 7):
                now = is_k_lookahead_deterministic(a, k).verdict
                assert not (held and not now)
                held = now


class TestMinLookahead:
    def test_two_lookahead_example(self):
        assert min_lookahead(glushkov_two_lookahead()) == 2

    def test_deterministic(self):
        assert min_lookahead(min_dfa_two_block()) == 1

    def test_unbounded_pair(self):
        a = BlockAutomaton.make(
            states={"i", "p", "q"},
            initials={"i"},
            finals={"p", "q"},
            transitions=[("i", "a", "p"), ("i", "a", "q"), ("p", "a", "p"), ("q", "a", "q")],
        )
        assert min_lookahead(a) is None

    def test_union_tail_needs_lookahead_two(self):
        # a_3 has no successors, so one extra symbol separates the branches.
        assert min_lookahead(glushkov_union_tail()) == 2

    def test_agrees_with_pointwise_checks(self, width1_corpus):
        for expr in width1_corpus:
            a = glushkov(expr).automaton
            least = min_lookahead(a)
            if least is None:
                assert not any(
                    is_k_lookahead_deterministic(a, k).verdict for k in range(1, 7)
                )
            else:
                assert is_k_lookahead_deterministic(a, least).verdict
                if least > 1:
                    assert not is_k_lookahead_deterministic(a, least - 1).verdict

    def test_matches_per_pair_walks(self):
        # The reference walks each clashing pair on its own, as blockdet did
        # before the table: a capped breadth-first search per k, and one
        # depth-first walk per pair for the least k.
        rng = random.Random(1313)
        seen = {"unbounded": 0, "deep": 0, "met": 0}
        for _ in range(400):
            a = _random_width1_nfa(rng)
            pairs = _reference_clashes(a)
            for k in range(1, 7):
                violations = tuple(
                    sorted(
                        (t1, t2)
                        for t1, t2 in pairs
                        if _common_word_exists(a, t1.target, t2.target, k - 1)
                    )
                )
                result = is_k_lookahead_deterministic(a, k)
                assert result.violations == violations, a
                assert result.verdict == (len(a.initials) == 1 and not violations), a
            depths = [_longest_common_depth(a, t1.target, t2.target) for t1, t2 in pairs]
            if len(a.initials) != 1 or None in depths:
                least = None
            else:
                least = max([1] + [d + 2 for d in depths])
            assert min_lookahead(a) == least, a
            seen["unbounded"] += None in depths
            seen["deep"] += any(d is not None and d >= 2 for d in depths)
            targets = {t.target for pair in pairs for t in pair}
            seen["met"] += any(len(a.in_edges[q]) >= 2 for q in targets)
        assert min(seen.values()) > 50, seen


class TestExpressionChecks:
    def test_block_examples(self):
        assert is_k_block_deterministic_expression(parse("[aa]*([ab]b+ba)b*"), 2).verdict
        assert is_k_block_deterministic_expression(parse("(a(eps+[bc]))*(eps+[bb])"), 2).verdict
        assert not is_k_block_deterministic_expression(parse("a+[ab]"), 2).verdict

    def test_lookahead_examples(self):
        assert is_k_lookahead_deterministic_expression(parse("b*a(b*a)*(a+b)"), 2).verdict
        assert is_k_lookahead_deterministic_expression(parse("a"), 1).verdict

    def test_union_tail_expression_lookahead(self):
        # Nondeterministic at k=1; the dead-end position a_3 makes k=2 work.
        expr = parse("(a+b)*a+eps")
        assert not is_k_lookahead_deterministic_expression(expr, 1).verdict
        assert is_k_lookahead_deterministic_expression(expr, 2).verdict
        assert marked_language_oracle("lookahead", expr, 1, 6).verdict is False
        assert marked_language_oracle("lookahead", expr, 2, 6).verdict is True

    def test_wide_blocks_rejected_for_lookahead(self):
        with pytest.raises(ValueError):
            is_k_lookahead_deterministic_expression(parse("[ab]+a"), 2)


class TestOracle:
    def test_block_example_holds(self):
        result = marked_language_oracle("block", parse("[aa]*([ab]b+ba)b*"), 2, 4)
        assert result.verdict and bool(result) is True

    def test_block_counterexample_witness(self):
        result = marked_language_oracle("block", parse("a+[ab]"), 2, 2)
        assert not result.verdict and bool(result) is False
        prefix, b1, b2 = result.witness
        assert prefix == ()
        assert {b1.block.letters, b2.block.letters} == {"a", "ab"}

    def test_lookahead_example_holds(self):
        assert marked_language_oracle("lookahead", parse("b*a(b*a)*(a+b)"), 2, 5).verdict

    def test_empty_language_agrees(self):
        for k in (1, 2):
            assert marked_language_oracle("block", Empty(), k, 4).verdict
            assert is_k_block_deterministic_expression(Empty(), k).verdict
            assert marked_language_oracle("lookahead", Empty(), k, 4).verdict
            assert is_k_lookahead_deterministic_expression(Empty(), k).verdict

    def test_prefixes_are_cached_on_the_expression(self):
        from blockdet.determinism import _marked_prefixes

        _marked_prefixes.cache_clear()
        first = marked_language_oracle("block", parse("(a+b)*[ab]"), 2, 4)
        again = marked_language_oracle("block", parse("( a + b )*([ab])"), 2, 4)
        assert first == again
        assert _marked_prefixes.cache_info()[:2] == (1, 1)  # hits, misses

    def test_marked_input_rejected(self):
        with pytest.raises(ValueError, match="^expression is already marked$"):
            marked_language_oracle("block", mark(parse("ab")).ast, 1, 3)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            marked_language_oracle("nope", parse("a"), 1, 3)
        with pytest.raises(ValueError, match="^maxlen must be >= 0$"):
            marked_language_oracle("block", parse("a"), 1, -1)
        with pytest.raises(ValueError, match="^lookahead determinism is defined on width-1 expressions$"):
            marked_language_oracle("lookahead", parse("[ab]"), 1, 3)

    def test_agreement_on_corpus(self, block_corpus):
        for expr in block_corpus:
            marked_size = sum(1 for _ in _literals(expr))
            if marked_size > 8:
                continue
            for k in (1, 2, 3, 4):
                oracle = marked_language_oracle("block", expr, k, 6).verdict
                check = is_k_block_deterministic_expression(expr, k).verdict
                assert oracle == check, (expr, k)
            if width(expr) == 1:
                for k in (1, 2, 3, 4):
                    oracle = marked_language_oracle("lookahead", expr, k, 6).verdict
                    check = is_k_lookahead_deterministic_expression(expr, k).verdict
                    assert oracle == check, (expr, k)

    def test_agreement_on_random_expressions(self):
        rng = random.Random(907)
        for _ in range(60):
            expr = random_expression(rng, max_positions=6, max_width=3)
            for k in (1, 2, 3):
                assert (
                    marked_language_oracle("block", expr, k, 6).verdict
                    == is_k_block_deterministic_expression(expr, k).verdict
                )
                if width(expr) == 1:
                    assert (
                        marked_language_oracle("lookahead", expr, k, 6).verdict
                        == is_k_lookahead_deterministic_expression(expr, k).verdict
                    )


class TestReport:
    def test_violations_share_source(self):
        result = is_k_block_deterministic(glushkov_union_tail(), 1)
        assert result.violations
        for t1, t2 in result.violations:
            assert t1.source == t2.source


def _random_block_automaton(rng: random.Random) -> BlockAutomaton:
    """Up to five states over blocks of {a,b} of width 1-3; a state may
    carry one label towards several targets."""
    states = [f"q{i}" for i in range(rng.randint(1, 5))]
    transitions = [
        (source, "".join(rng.choices("ab", k=rng.randint(1, 3))), rng.choice(states))
        for source in states
        for _ in range(rng.randint(0, 4))
    ]
    return BlockAutomaton.make(
        states=states, initials={"q0"}, finals={states[-1]}, transitions=transitions
    )


def _literals(expr):
    from blockdet.syntax import literal_symbols

    return literal_symbols(expr)


def _random_width1_nfa(rng: random.Random) -> BlockAutomaton:
    """Four to nine states over {a,b}, half of them acyclic, with one to
    three initials.  Edges into one or two hub states, and pairs of branches
    that converge on one state, make many clashing pairs meet."""
    n = rng.randint(4, 9)
    states = [f"q{i}" for i in range(n)]
    acyclic = rng.random() < 0.5

    def ends(count):
        """`count` state indices, ascending when the automaton is acyclic."""
        picked = rng.sample(range(n), count)
        return sorted(picked) if acyclic else picked

    def label():
        return rng.choice("aab")

    transitions = []
    for _ in range(rng.randint(n, 3 * n)):
        i, j = ends(2)
        transitions.append((states[i], label(), states[j]))
    for _ in range(rng.randint(1, 2)):  # a hub
        hub = rng.randrange(1, n)
        for _ in range(rng.randint(2, 5)):
            i = rng.randrange(hub) if acyclic else rng.randrange(n)
            transitions.append((states[i], label(), states[hub]))
    for _ in range(rng.randint(1, 3)):  # two branches converging
        s, x, y, z = (states[i] for i in ends(4))
        first, second = label(), label()
        transitions += [(s, first, x), (s, first, y), (x, second, z), (y, second, z)]
    return BlockAutomaton.make(
        states=states,
        initials=rng.sample(states, rng.choice([1, 1, 1, 2, 3])),
        finals=rng.sample(states, rng.randint(1, n)),
        transitions=transitions,
    )


# The per-pair walks that decided lookahead determinism before the table.


def _reference_clashes(a: BlockAutomaton) -> list:
    return [
        (t1, t2)
        for t1 in a.transitions
        for t2 in a.transitions
        if t1 < t2 and t1.source == t2.source and t1.label == t2.label
    ]


def _pair_successors(a: BlockAutomaton, pair):
    p, q = pair
    for t1 in a.out_edges[p]:
        for t2 in a.out_edges[q]:
            if t1.label == t2.label:
                pt, qt = t1.target, t2.target
                yield (pt, qt) if pt <= qt else (qt, pt)


def _common_word_exists(a: BlockAutomaton, q1, q2, length: int) -> bool:
    frontier = {(q1, q2) if q1 <= q2 else (q2, q1)}
    for _ in range(length):
        frontier = {nxt for pair in frontier for nxt in _pair_successors(a, pair)}
        if not frontier:
            return False
    return True


def _longest_common_depth(a: BlockAutomaton, q1, q2) -> int | None:
    seed = (q1, q2) if q1 <= q2 else (q2, q1)
    graph: dict = {}

    def successors(pair):
        graph[pair] = set(_pair_successors(a, pair))
        return graph[pair]

    order = reference_postorder([seed], successors)
    if order is None:
        return None
    depth: dict = {}
    for pair in order:
        depth[pair] = max((1 + depth[nxt] for nxt in graph[pair]), default=0)
    return depth[seed]
