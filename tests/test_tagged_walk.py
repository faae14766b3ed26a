"""The tagged-subset walks behind k-lookahead determinism: they agree with
the pair table (`conftest.reference_common_depths`) and the marked-language
oracle, fall back per clash group to the group's pairs when their budget
runs out, and stay linear on word unions."""

import math
import random
import signal

from blockdet import (
    BlockAutomaton,
    glushkov,
    is_k_lookahead_deterministic,
    lookahead,
    marked_language_oracle,
    min_lookahead,
    minimal_dfa,
    parse,
    trim,
)
from blockdet.automaton import _clashing_pairs, longest_path
from blockdet.lookahead import _Groups

from conftest import random_expression, reference_common_depths


def _copy(a):
    """The same automaton with nothing derived yet."""
    return BlockAutomaton.make(a.states, a.initials, a.finals, a.transitions)


def _fell_back(a):
    """Whether some clash group fell back to its pairs: their depths are
    kept beside the group depths."""
    return bool(a.group_depths.groups.fallen)


def _table_answers(a, ks):
    """min_lookahead and the violations at each k, read from the pair table
    of a fresh copy."""
    b = _copy(a)
    depths = reference_common_depths(b)
    least = None if len(b.initials) != 1 or -1 in depths else max(depths, default=-1) + 2
    pairs = list(_clashing_pairs(b.out_edges))
    return least, {
        k: tuple(pair for pair, depth in zip(pairs, depths) if depth < 0 or depth >= k - 1)
        for k in ks
    }


def _walk_answers(a, ks):
    """The same answers from walks with no budget, so no pair walk answers
    in their place."""
    b = _copy(a)
    walk = _Groups(b)
    walk.left = math.inf
    groups = walk.groups
    depths = [walk.depth(tuple(t.target for t in g)) for g in groups]
    least = None if len(b.initials) != 1 or -1 in depths else max(depths, default=-1) + 2
    violations = {}
    for k in ks:
        found = []
        for group, depth in zip(groups, depths):
            if depth < 0 or depth >= k - 1:
                targets = tuple(t.target for t in group)
                found += [(group[i], group[j]) for i, j in walk.pairs(targets, k - 1)]
        violations[k] = tuple(found)
    assert not walk.finished  # no pair was walked
    return least, violations


def _public_answers(a, ks):
    """The answers of the public functions on a fresh copy, and whether the
    walks served them."""
    b = _copy(a)
    answers = (min_lookahead(b), {k: is_k_lookahead_deterministic(b, k).violations for k in ks})
    return answers, not _fell_back(b)


def _random_nfa(rng):
    """A trimmed random NFA over ab, cycles allowed, one or two initials."""
    names = [f"s{i}" for i in range(rng.randint(1, 9))]
    transitions = [
        (rng.choice(names), rng.choice("ab"), rng.choice(names))
        for _ in range(rng.randint(1, 3 * len(names)))
    ]
    return trim(BlockAutomaton.make(
        states=names,
        initials=rng.sample(names, rng.randint(1, min(2, len(names)))),
        finals=rng.sample(names, rng.randint(1, len(names))),
        transitions=transitions,
    ))


def _corpus():
    rng = random.Random(2201)
    for _ in range(300):
        g = glushkov(random_expression(rng, 8, 1)).automaton
        yield g
        yield minimal_dfa(g)
    for _ in range(100):
        yield glushkov(random_expression(rng, 14, 1, "ab")).automaton
    for _ in range(400):
        yield _random_nfa(rng)


def _ks(a):
    """k = 1..5 and one k past every finite depth, where only the unbounded
    pairs still violate."""
    finite = [depth for depth in reference_common_depths(_copy(a)) if depth >= 0]
    return (1, 2, 3, 4, 5, max(finite, default=0) + 2)


class TestWalkAgainstTable:
    def test_walk_gives_the_tables_answers(self):
        served = unbounded = clashing = 0
        for a in _corpus():
            ks = _ks(a)
            expected = _table_answers(a, ks)
            assert _walk_answers(a, ks) == expected, a
            public, by_walk = _public_answers(a, ks)
            assert public == expected, a
            if any(expected[1].values()):
                clashing += 1
                served += by_walk
            unbounded += bool(expected[1][ks[-1]])
        # The corpus clashes and reaches unbounded depths.  The walks answer
        # all calls on about a third of the clashing automata within their
        # budget; the rest are dense random NFAs, or level walks that keep
        # every tag through cycles.
        assert clashing > 250 and unbounded > 150 and served > 80

    def test_violations_keep_the_tables_order(self):
        # An x-group at the initial state of depth 1, then three y-groups
        # of depth 0 with the same targets, which share one walk.
        a = glushkov(parse("x(yz+yw)*(y+x)+x(y+z)")).automaton
        for k in (1, 2, 3):
            walked = is_k_lookahead_deterministic(_copy(a), k).violations
            assert walked == _table_answers(a, [k])[1][k]
        assert len(is_k_lookahead_deterministic(_copy(a), 1).violations) > 2

    def test_a_found_clash_is_a_violation(self):
        # One way only: the oracle reads words up to 5 symbols, so a clash it
        # finds is real, but it can miss one that needs longer words.
        rng = random.Random(2202)
        found = 0
        for _ in range(150):
            expr = random_expression(rng, 10, 1, "ab")
            a = glushkov(expr).automaton
            for k in (1, 2, 3):
                if not marked_language_oracle("lookahead", expr, k, 5).verdict:
                    found += 1
                    assert not is_k_lookahead_deterministic(_copy(a), k).verdict, expr
        assert found > 100


def _within(seconds, what, call):
    """``call()``, failing if it takes longer than ``seconds``: the timer
    turns a quadratic regression into a failure, not a hang."""

    def expire(signum, frame):
        raise TimeoutError(f"{what} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _dictionary(words, seed):
    """A union of distinct random 12-letter words over ab."""
    rng = random.Random(seed)
    found: set = set()
    while len(found) < words:
        found.add("".join(rng.choice("ab") for _ in range(12)))
    return parse("+".join(sorted(found)))


def _lookahead_answers(a):
    """min_lookahead and the named violations at the least k and below it."""
    least = min_lookahead(a)
    return least, [is_k_lookahead_deterministic(a, k).violations for k in (least, least - 1)]


class TestBudget:
    def test_exponential_walk_falls_back_to_the_table(self):
        # Tagged subsets of this family grow like its determinization; the
        # table holds 10 pairs.  The walk runs over its budget, and the pair
        # walk answers for the groups left, over their own pairs.
        n = 12
        either = "(a+b)" * n
        a = glushkov(parse(f"(a+b)*a{either}+(a+b)*b{either}c")).automaton
        ks = (1, 2, 5, n + 2)
        expected = _table_answers(a, ks)
        answers = _within(2, "the fallback", lambda: (
            min_lookahead(a), {k: is_k_lookahead_deterministic(a, k).violations for k in ks}
        ))
        assert answers == expected
        assert _fell_back(a) and len(reference_common_depths(a)) == 10

    def test_fallback_is_per_group(self):
        # One of the four distinct groups falls back.  The others keep their
        # walks' answers, and the checks read the fallen group's kept pair
        # depths without walking them again.
        a = glushkov(parse("(a+b)*a(a+b)(a+b)+(a+b)*b(a+b)(a+b)c")).automaton
        groups = a.group_depths.groups
        assert len(groups.fallen) == 1 and len(set(groups.targets)) == 4
        kept = dict(groups.fallen)
        ks = (1, 2, 3, 4)
        answers = (min_lookahead(a), {k: is_k_lookahead_deterministic(a, k).violations for k in ks})
        assert answers == _table_answers(a, ks)
        assert all(groups.fallen[t] is depths for t, depths in kept.items())

    def test_fallen_pairs_are_walked_once(self, monkeypatch):
        # With no budget every group falls back to its pairs.  The pair walks
        # keep every pair they finish, so over the depth build and the checks
        # each pair's successors are computed once, and no in_edges index is
        # built.  The clashing pair (q0, q4) is also a successor of (q1, q1),
        # which its sibling pair (q3, q4) reaches.
        a = BlockAutomaton.make(
            ["q0", "q1", "q2", "q3", "q4"],
            ["q0"],
            ["q4"],
            [("q1", "b", "q0"), ("q1", "b", "q3"), ("q1", "b", "q4"), ("q2", "a", "q3"),
             ("q3", "b", "q1"), ("q4", "a", "q1"), ("q4", "b", "q1")],
        )
        build = _Groups.__init__

        def starved(groups, b):
            build(groups, b)
            groups.budget = groups.left = -1

        expanded = []

        def counted(root, successors, finished):
            def counting(pair):
                expanded.append(pair)
                return successors(pair)

            return longest_path(root, counting, finished)

        monkeypatch.setattr(_Groups, "__init__", starved)
        monkeypatch.setattr(lookahead, "longest_path", counted)
        ks = (1, 2, 3)
        answers = (min_lookahead(a), {k: is_k_lookahead_deterministic(a, k).violations for k in ks})
        assert ("q0", "q4") in expanded and ("q1", "q1") in expanded
        assert len(expanded) == len(set(expanded)), sorted(expanded)
        assert "in_edges" not in a.__dict__
        assert _fell_back(a) and answers == _table_answers(a, ks)

    def test_long_chains_are_walked(self):
        # Two a-chains of 1,500 states each off one initial state.
        xs = [f"x{j}" for j in range(1, 1501)]
        ys = [f"y{j}" for j in range(1, 1501)]
        transitions = [("i", "a", xs[0]), ("i", "a", ys[0])]
        transitions += [(u, "a", v) for chain in (xs, ys) for u, v in zip(chain, chain[1:])]
        a = BlockAutomaton.make(["i", *xs, *ys], ["i"], [xs[-1], ys[-1]], transitions)
        least, (at_least, below) = _lookahead_answers(a)
        assert least == 1501 and at_least == () and len(below) == 1
        assert not _fell_back(a) and not a.group_depths.groups.finished  # no pair walked
        assert (least, {1501: at_least, 1500: below}) == _table_answers(a, [1501, 1500])

    def test_dictionary_is_walked(self):
        a = glushkov(_dictionary(400, 2203)).automaton
        least, violations = _lookahead_answers(a)
        assert not _fell_back(a)
        assert violations[0] == () and violations[1]
        assert (least, {least: violations[0], least - 1: violations[1]}) == _table_answers(
            a, [least, least - 1]
        )


class TestScaling:
    def test_large_dictionary_is_linear(self):
        # 3,200 words: the table would hold about 2.56 million pairs and
        # take seconds; the walks read each word's positions a few times.
        a = glushkov(_dictionary(3200, 2204)).automaton
        least, violations = _within(2, "lookahead on 3,200 words", lambda: _lookahead_answers(a))
        assert least == 12 and violations[0] == () and violations[1]
        assert not _fell_back(a)
