"""The walks behind k-lookahead determinism: they agree with the pair
table (`conftest.reference_common_depths`) and the marked-language oracle,
answer every clash group from its pairs when none is wide, fall back per
group to its pairs when the tagged walks' budget runs out, and stay linear
on word unions."""

import math
import random
import signal
from collections import Counter

import conftest

from blockdet import (
    BlockAutomaton,
    glushkov,
    is_k_lookahead_deterministic,
    lookahead,
    marked_language_oracle,
    min_lookahead,
    minimal_dfa,
    parse,
    to_text,
    trim,
)
from blockdet.automaton import _clashing_pairs, longest_path
from blockdet.lookahead import SMALL, _Groups

from conftest import dense_nfa, random_expression, reference_common_depths


def _copy(a):
    """The same automaton with nothing derived yet."""
    return BlockAutomaton.make(a.states, a.initials, a.finals, a.transitions)


def _fell_back(a):
    """Whether the pair depths of some clash group are kept beside the group
    depths: of every group when none has more than `SMALL` targets, of a
    group the tagged walks did not answer within their budget, and of a
    group of two, whose depth is its pair's."""
    return bool(a.group_depths.groups.fallen)


def _counting(monkeypatch):
    """From now on, count the tagged entries of the nodes the walks expand,
    per group size, and list the pairs the pair walks expand."""
    entries: Counter = Counter()
    pairs: list = []
    steps, pair_steps = _Groups._steps, _Groups._pair_steps

    def counted_steps(groups, node, size, keep):
        entries[size] += len(node)
        return steps(groups, node, size, keep)

    def counted_pair_steps(groups, pair):
        pairs.append(pair)
        return pair_steps(groups, pair)

    monkeypatch.setattr(_Groups, "_steps", counted_steps)
    monkeypatch.setattr(_Groups, "_pair_steps", counted_pair_steps)
    return entries, pairs


def _listing(expanded):
    """`longest_path`, listing in ``expanded`` each node it expands."""

    def walk(root, successors, finished):
        def listed(node):
            expanded.append(node)
            return successors(node)

        return longest_path(root, listed, finished)

    return walk


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
    in their place.  Called with `SMALL` below every group's size, so that
    the walks number the states."""
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
    """The answers of the public functions on a fresh copy."""
    b = _copy(a)
    return min_lookahead(b), {k: is_k_lookahead_deterministic(b, k).violations for k in ks}


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
    def test_walk_gives_the_tables_answers(self, monkeypatch):
        unbounded = clashing = 0
        entries: Counter = Counter()  # group size -> tagged entries expanded
        for a in _corpus():
            ks = _ks(a)
            expected = _table_answers(a, ks)
            with monkeypatch.context() as patched:
                patched.setattr(lookahead, "SMALL", 1)
                assert _walk_answers(a, ks) == expected, a
            with monkeypatch.context() as patched:
                expanded, _ = _counting(patched)
                assert _public_answers(a, ks) == expected, a
            if not a.group_depths.groups.wide:
                entries.update(expanded)
            if any(expected[1].values()):
                clashing += 1
            unbounded += bool(expected[1][ks[-1]])
        # The corpus clashes and reaches unbounded depths.  The walks with
        # no budget answer every group; on automata whose groups all have at
        # most SMALL targets the public answers read pairs, with no tagged
        # entry.
        assert clashing > 250 and unbounded > 150
        assert sum(entries.values()) == 0, entries

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
    def test_exponential_walk_falls_back_to_the_table(self, monkeypatch):
        # Tagged subsets of this family grow like its determinization.  The
        # nine e-targets after d form a wide group, so every group takes the
        # tagged walk, which runs over its budget on the first group; the
        # pair walk answers for every group, over its own pairs.  The table
        # holds 10 + 36 pairs.
        n = 12
        either = "(a+b)" * n
        nine = "+".join(["e"] * 9)
        a = glushkov(parse(f"(a+b)*a{either}+(a+b)*b{either}c+d({nine})")).automaton
        ks = (1, 2, 5, n + 2)
        expected = _table_answers(a, ks)
        with monkeypatch.context() as patched:
            entries, _ = _counting(patched)
            answers = _within(2, "the fallback", lambda: (
                min_lookahead(a), {k: is_k_lookahead_deterministic(a, k).violations for k in ks}
            ))
        assert answers == expected
        groups = a.group_depths.groups
        assert groups.wide and sum(entries.values()) > groups.budget
        assert len(groups.fallen) == len(set(groups.targets)) == 5
        assert len(reference_common_depths(a)) == 46

    def test_fallback_is_per_group(self):
        # Two groups of nine targets.  At g, nine one-letter branches meet
        # at e: walked within the budget.  At h, nine branches enter an
        # acyclic NFA whose subsets after a word hold which of its last 8
        # letters were a, so the tagged walk runs over the budget: h falls
        # back, with the groups of two after it, and g does not.  The checks
        # read the kept pair depths without walking them again.
        n = 8
        transitions = [("i", "a", "g"), ("i", "b", "h")]
        for j in range(9):
            transitions += [("g", "a", f"p{j}"), (f"p{j}", "b", "e"), ("h", "a", f"x{j}")]
            transitions += [(f"x{j}", c, "r0") for c in "ab"]
        for i in range(n + 2):
            transitions += [(f"r{i}", c, f"r{i + 1}") for c in "ab"] + [(f"r{i}", "a", "t1")]
        transitions += [(f"t{j}", c, f"t{j + 1}") for j in range(1, n) for c in "ab"]
        states = {q for source, _, target in transitions for q in (source, target)}
        a = BlockAutomaton.make(states, ["i"], ["e"], transitions)
        groups = a.group_depths.groups
        large = [t for t in dict.fromkeys(groups.targets) if len(t) > SMALL]
        over = [t for t in groups.fallen if len(t) > SMALL]  # ran over the budget
        assert len(large) == 2 and over == large[1:]
        assert set(groups.fallen) == set(groups.targets) - {large[0]}
        kept = dict(groups.fallen)
        ks = (1, 2, 3, 18, 19, 20)
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
        monkeypatch.setattr(_Groups, "__init__", starved)
        monkeypatch.setattr(lookahead, "longest_path", _listing(expanded))
        ks = (1, 2, 3)
        answers = (min_lookahead(a), {k: is_k_lookahead_deterministic(a, k).violations for k in ks})
        assert ("q0", "q4") in expanded and ("q1", "q1") in expanded
        assert len(expanded) == len(set(expanded)), sorted(expanded)
        assert "in_edges" not in a.__dict__
        assert _fell_back(a) and answers == _table_answers(a, ks)

    def test_long_chains_are_walked(self, monkeypatch):
        # a-chains of 1,500 states each off one initial state.  Two chains
        # form a group of two, whose pair walk expands each of its 1,500
        # pairs once; nine form a group of nine, walked by tags with no
        # pair walked.
        for count in (2, 9):
            chains = [[f"x{i}_{j}" for j in range(1, 1501)] for i in range(count)]
            transitions = [("i", "a", chain[0]) for chain in chains]
            transitions += [(u, "a", v) for chain in chains for u, v in zip(chain, chain[1:])]
            states = ["i"] + [q for chain in chains for q in chain]
            a = BlockAutomaton.make(states, ["i"], [chain[-1] for chain in chains], transitions)
            with monkeypatch.context() as patched:
                entries, pairs = _counting(patched)
                least, (at_least, below) = _lookahead_answers(a)
            assert least == 1501 and at_least == () and len(below) == count * (count - 1) // 2
            if count == 2:
                assert not entries and len(pairs) == len(set(pairs)) == 1500
            else:
                assert entries[count] > 0 and not pairs and not a.group_depths.groups.fallen
            assert (least, {1501: at_least, 1500: below}) == _table_answers(a, [1501, 1500])

    def test_dictionary_is_walked(self):
        a = glushkov(_dictionary(400, 2203)).automaton
        least, violations = _lookahead_answers(a)
        assert not _fell_back(a)
        assert violations[0] == () and violations[1]
        assert (least, {least: violations[0], least - 1: violations[1]}) == _table_answers(
            a, [least, least - 1]
        )


class TestSmallGroups:
    def test_dense_nfas_read_their_pairs(self, monkeypatch):
        # No group of these NFAs has more than SMALL targets, so no tagged
        # entry is expanded, and the pair walks expand as many pairs as the
        # whole table does.
        rng = random.Random(11)
        for n in (20, 40):
            for _ in range(10):
                a = dense_nfa(rng, n)
                with monkeypatch.context() as patched:
                    entries, pairs = _counting(patched)
                    depths = list(a.group_depths)
                table = []
                with monkeypatch.context() as patched:
                    patched.setattr(conftest, "longest_path", _listing(table))
                    reference_common_depths(_copy(a))
                assert sum(entries.values()) == 0 and depths
                assert len(pairs) == len(set(pairs)) == len(table), n


class TestScaling:
    def test_large_dictionary_is_linear(self, monkeypatch):
        # 3,200 words: the table would hold about 2.56 million pairs and
        # take seconds; the walks read each word's positions a few times.
        a = glushkov(_dictionary(3200, 2204)).automaton
        least, violations = _within(2, "lookahead on 3,200 words", lambda: _lookahead_answers(a))
        assert least == 12 and violations[0] == () and violations[1]
        assert not _fell_back(a)
        # The same work counted: doubling the words at most doubles the
        # tagged entries expanded, give or take 10 %.
        counts = []
        for b in (glushkov(_dictionary(1600, 2205)).automaton, _copy(a)):
            with monkeypatch.context() as patched:
                entries, pairs = _counting(patched)
                _lookahead_answers(b)
            assert not pairs
            counts.append(sum(entries.values()))
        assert counts[1] <= 2.2 * counts[0], counts

    def test_fan_out_before_a_dictionary_is_linear(self, monkeypatch):
        # (a+ab) before a word union.  Its group of two would walk m^2 pairs:
        # (a, b) pairs each b-word's first position with b, and each of those
        # pairs the word's second position with every first position under
        # that letter.  The union's groups are wide, so tagged walks answer
        # every group, reading each word a few times: doubling the words at
        # most doubles the tagged entries, give or take 10 %, and no pair is
        # walked.  The checks read the group of two's depth as its pair's.
        counts = []
        for words, seed in ((1600, 2206), (3200, 2207)):
            a = glushkov(parse(f"(a+ab)({to_text(_dictionary(words, seed))})")).automaton
            with monkeypatch.context() as patched:
                entries, pairs = _counting(patched)
                a.group_depths
                walked = entries[2]
                least, violations = _lookahead_answers(a)
            assert least == 14 and violations[0] == () and violations[1]
            assert not pairs and entries[2] == walked > 0
            counts.append(sum(entries.values()))
        assert counts[1] <= 2.2 * counts[0], counts
