"""The package's records: plain classes holding their fields in slots, and
two named tuples.  Each keeps the repr, equality, hashing, immutability
and constructor of the frozen value it replaced, and importing the
package loads no code-generating library."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import blockdet
from blockdet import mark, parse
from blockdet.automaton import BlockAutomaton, Transition
from blockdet.bkw import (
    BkwNode,
    BkwTrace,
    Orbit,
    OrbitDecomposition,
    OrbitPropertyResult,
    bkw_test,
    minimal_dfa,
)
from blockdet.determinism import CheckResult, OracleResult
from blockdet.glushkov import GlushkovAutomaton
from blockdet.syntax import BlockSymbol, Position, PositionTable
from blockdet.transform import ExpandedSymbol
from blockdet.witnesses import Claim, VerificationReport, WitnessSpec

A = BlockSymbol("a")
ONE = frozenset({"i"})
NONE = frozenset()


def _automaton():
    return BlockAutomaton(frozenset({"i"}), frozenset({"i"}), frozenset(), frozenset())


def _node():
    return BkwNode("1 states, 0 transitions", (), True, None)


# Each record class once: a factory for fresh, field-equal instances, and
# the repr they give.
CASES = {
    "BlockAutomaton": (
        _automaton,
        "BlockAutomaton(states=frozenset({'i'}), initials=frozenset({'i'}), "
        "finals=frozenset(), transitions=frozenset())",
    ),
    "Transition": (
        lambda: Transition("p", BlockSymbol("ab"), "q"),
        "Transition(source='p', label=BlockSymbol('ab'), target='q')",
    ),
    "Position": (lambda: Position(1, A), "Position(index=1, block=BlockSymbol('a'))"),
    "PositionTable": (
        lambda: PositionTable(True, frozenset({Position(1, A)}), frozenset(), {Position(1, A): NONE}),
        "PositionTable(nullable=True, first=frozenset({Position(index=1, block=BlockSymbol('a'))}), "
        "last=frozenset(), follow={Position(index=1, block=BlockSymbol('a')): frozenset()})",
    ),
    "Orbit": (
        lambda: Orbit(ONE, False, ONE, NONE),
        "Orbit(states=frozenset({'i'}), trivial=False, in_gates=frozenset({'i'}), "
        "out_gates=frozenset())",
    ),
    "OrbitDecomposition": (
        lambda: OrbitDecomposition((Orbit(ONE, True, ONE, ONE),)),
        "OrbitDecomposition(orbits=(Orbit(states=frozenset({'i'}), trivial=True, "
        "in_gates=frozenset({'i'}), out_gates=frozenset({'i'})),))",
    ),
    "OrbitPropertyResult": (
        lambda: OrbitPropertyResult(False, ONE, ("i", "j"), "i is final but j is not"),
        "OrbitPropertyResult(holds=False, orbit=frozenset({'i'}), pair=('i', 'j'), "
        "reason='i is final but j is not')",
    ),
    "BkwNode": (
        _node,
        "BkwNode(fingerprint='1 states, 0 transitions', consistent=(), "
        "orbit_property_holds=True, failure=None, violating_orbit=None, violating_pair=None)",
    ),
    "BkwTrace": (
        lambda: BkwTrace(False, None),
        "BkwTrace(verdict=False, steps=None)",
    ),
    "CheckResult": (
        lambda: CheckResult(2, True, ()),
        "CheckResult(k=2, verdict=True, violations=())",
    ),
    "OracleResult": (
        lambda: OracleResult(False, ((), A, A)),
        "OracleResult(verdict=False, witness=((), BlockSymbol('a'), BlockSymbol('a')))",
    ),
    "GlushkovAutomaton": (
        lambda: GlushkovAutomaton(_automaton(), {}),
        "GlushkovAutomaton(automaton=BlockAutomaton(states=frozenset({'i'}), "
        "initials=frozenset({'i'}), finals=frozenset(), transitions=frozenset()), "
        "position_of_state={})",
    ),
    "ExpandedSymbol": (
        lambda: ExpandedSymbol("a", 1, 2),
        "ExpandedSymbol(letter='a', block_index=1, offset=2)",
    ),
    "WitnessSpec": (lambda: WitnessSpec("block_Ak", 2), "WitnessSpec(family='block_Ak', parameter=2)"),
    "Claim": (lambda: Claim("M_k is minimal", True), "Claim(name='M_k is minimal', ok=True)"),
    "VerificationReport": (
        lambda: VerificationReport("block_Ak", 2, (Claim("c", False),)),
        "VerificationReport(family='block_Ak', parameter=2, claims=(Claim(name='c', ok=False),))",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, text = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", sorted(set(CASES) - {"BkwNode"}))
def test_equal_to_a_field_equal_twin(name):
    make, _ = CASES[name]
    record, twin = make(), make()
    assert record is not twin
    assert record == twin and not record != twin
    if name in ("PositionTable", "GlushkovAutomaton"):  # a dict field
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == hash(twin) and len({record, twin}) == 1


def test_records_of_different_classes_differ():
    records = [make() for make, _ in CASES.values()]
    for i, x in enumerate(records):
        for y in records[i + 1 :]:
            assert x != y and y != x
    # The same field values in another class, or in a plain tuple.
    assert Claim("block_Ak", 2) != WitnessSpec("block_Ak", 2)
    assert OracleResult(True, None) != BkwTrace(True, None)
    assert Claim("c", True) != ("c", True)
    # Named tuples stay tuples.
    assert Position(1, A) == (1, "a") and Transition("p", A, "q") == ("p", "a", "q")


@pytest.mark.parametrize("name", CASES)
def test_refuses_assignment_and_deletion(name):
    make, _ = CASES[name]
    record = make()
    field = type(record)._fields[0]
    value = getattr(record, field)
    for target in (field, "other"):
        with pytest.raises(AttributeError):
            setattr(record, target, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value and not hasattr(record, "other")
    # Slotted, except the automaton, whose dict also holds what is derived.
    assert hasattr(record, "__dict__") == (name == "BlockAutomaton")


@pytest.mark.parametrize("name", CASES)
def test_copies_and_pickles(name):
    make, text = CASES[name]
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and repr(twin) == text
        assert twin == record or name == "BkwNode"


def test_expressions_copy_and_pickle():
    expr = parse("(a+[bc])*eps.a")
    marked = mark(expr)
    for value in (expr, marked):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def _unless_it_recurses(call, value):
    """``call(value)``, failing plainly on a RecursionError: pytest looks for
    the recursion by comparing every frame's locals, which on the deep
    expressions below takes minutes."""
    try:
        return call(value)
    except RecursionError:
        pass
    pytest.fail(f"{call} recursed")


def test_deep_expressions_print_copy_and_pickle():
    # Far past the recursion limit: a left-nested union of 3,000 letters
    # and 900 nested stars, bare and marked.
    a = "Literal(symbol=BlockSymbol('a'))"
    cases = [
        (parse("+".join(["a"] * 3000)), "Union(left=" * 2999 + a + f", right={a})" * 2999),
        (parse("(" * 900 + "a" + ")*" * 900), "Star(child=" * 900 + a + ")" * 900),
    ]
    for expr, text in cases:
        assert _unless_it_recurses(repr, expr) == text
        marked = mark(expr)
        prefix = f"MarkedExpression(tree={text}, positions=(Position("
        assert _unless_it_recurses(repr, marked).startswith(prefix)
        for value in (expr, marked):
            for copier in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
                twin = _unless_it_recurses(copier, value)
                assert type(twin) is type(value) and twin == value


def _positional(record) -> tuple:
    return tuple(getattr(record, field) for field in type(record)._fields)


@pytest.mark.parametrize("name", CASES)
def test_positional_and_keyword_construction(name):
    make, _ = CASES[name]
    record = make()
    cls = type(record)
    values = _positional(record)
    by_keyword = cls(**dict(reversed(list(zip(cls._fields, values)))))
    for built in (cls(*values), by_keyword):
        assert type(built) is cls and _positional(built) == values
        assert repr(built) == repr(record)


def test_defaults():
    assert _positional(OrbitPropertyResult(True)) == (True, None, None, None)
    assert _positional(OrbitPropertyResult(holds=False, reason="r")) == (False, None, None, "r")
    node = BkwNode("f", ("a",), False, "orbit-property")
    assert _positional(node) == ("f", ("a",), False, "orbit-property", None, None, (), ())
    with pytest.raises(TypeError):
        CheckResult(1, True)
    with pytest.raises(TypeError):
        Claim("c", True, "extra")


def test_expanded_symbols_order_by_letter_block_and_offset():
    symbols = [ExpandedSymbol(*fields) for fields in [("b", 1, 1), ("a", 2, 1), ("a", 1, 2), ("a", 1, 1)]]
    assert [s.pretty() for s in sorted(symbols)] == ["a@1.1", "a@1.2", "a@2.1", "b@1.1"]
    low, high = ExpandedSymbol("a", 1, 1), ExpandedSymbol("a", 1, 2)
    assert low < high and low <= high and high > low and high >= low
    assert low <= ExpandedSymbol("a", 1, 1) >= low and not low < ExpandedSymbol("a", 1, 1)
    with pytest.raises(TypeError):
        low < ("a", 1, 2)
    with pytest.raises(TypeError):
        low >= Position(1, A)


def test_bkw_nodes_compare_by_identity():
    node, twin = _node(), _node()
    assert node == node and node != twin and len({node, twin}) == 2
    assert hash(node) == object.__hash__(node)
    # Two runs of the test make field-equal nodes that are not equal, and
    # so are their traces, which compare by field.
    first, second = (bkw_test(minimal_dfa(parse("(ab*)*c"))) for _ in range(2))
    assert repr(first.steps) == repr(second.steps) and first.steps != second.steps
    assert first != second and first == BkwTrace(first.verdict, first.steps)
    assert len(first.steps.children) == len(first.steps.contexts) == 1


def test_automaton_equality_reads_the_four_fields_alone():
    a = BlockAutomaton.make(states=["p", "q"], initials=["p"], finals=["q"], transitions=[("p", "a", "q")])
    b = BlockAutomaton.make(states=["q", "p"], initials=["p"], finals=["q"], transitions=[("p", "a", "q")])
    text, key = repr(a), hash(a)
    a.out_edges, a.alphabet, a.group_depths  # derived, and kept in the dict
    assert {"out_edges", "alphabet", "group_depths"} <= a.__dict__.keys()
    assert a == b and hash(a) == key == hash(b) and repr(a) == text == repr(b)
    assert a != BlockAutomaton(a.states, a.initials, frozenset(), a.transitions)


def test_constructors_refuse_bad_input():
    with pytest.raises(ValueError, match="^initial states must be states$"):
        BlockAutomaton(ONE, frozenset({"j"}), NONE, NONE)
    with pytest.raises(ValueError, match="^transition endpoints must be states: i -a-> j$"):
        BlockAutomaton(ONE, ONE, NONE, frozenset({Transition("i", A, "j")}))
    with pytest.raises(ValueError, match="^unknown family 'nope'; choose from "):
        WitnessSpec("nope", 1)
    with pytest.raises(ValueError, match=r"^block_Ak needs a parameter >= 1$"):
        WitnessSpec("block_Ak", 0)


def test_named_tuples_build_past_their_constructor():
    t = tuple.__new__(Transition, ("p", A, "q"))
    assert type(t) is Transition and t == Transition("p", A, "q") and str(t) == "p -a-> q"
    assert Transition._fields == ("source", "label", "target") and t.target == "q"
    p = tuple.__new__(Position, (3, BlockSymbol("ab")))
    assert (p.drop(), p.state_name(), str(p)) == ("ab", "ab_3", "[ab]_3")
    assert Position._fields == ("index", "block") and p < Position(4, A)


_SEED_SCRIPT = """
from blockdet.automaton import BlockAutomaton
from blockdet.bkw import Orbit
from blockdet.syntax import BlockSymbol, Position, PositionTable

def automaton(states):
    return BlockAutomaton.make(states, ["p"], ["q"], [("p", "a", "q"), ("q", "b", "r")])

def table(order):
    ps = [Position(i, BlockSymbol("ab"[i % 2])) for i in order]
    last = frozenset([p for p in ps if p.index > 6])
    return PositionTable(False, frozenset(ps), last, {p: frozenset(ps) for p in sorted(ps)})

twins = [
    (automaton(["p", "q", "r"]), automaton(["r", "q", "p"])),
    (Orbit(frozenset("pqr"), False, frozenset("qp"), frozenset()),
     Orbit(frozenset("rqp"), False, frozenset("pq"), frozenset())),
    (table(range(1, 9)), table(range(8, 0, -1))),
]
for x, y in twins:
    assert x == y and repr(x) == repr(y), (repr(x), repr(y))
    print(repr(x))
"""


def test_repr_follows_no_hash_seed():
    # A frozenset iterates in an order that follows the hash seed and, where
    # two members' hashes share a slot, the order they were added in; the
    # repr lists the members sorted, so field-equal records print alike.
    src = str(Path(blockdet.__file__).resolve().parents[1])
    texts = set()
    for hash_seed in range(8):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(hash_seed))
        done = subprocess.run(
            [sys.executable, "-c", _SEED_SCRIPT], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, (hash_seed, done.stderr[-2000:])
        texts.add(done.stdout)
    assert len(texts) == 1, texts
    orbit = "Orbit(states=frozenset({'p', 'q', 'r'}), trivial=False, in_gates=frozenset({'p', 'q'})"
    assert orbit in texts.pop()


def test_import_loads_no_code_generating_module():
    # -S: no site files, which may import these modules on their own.
    src = str(Path(blockdet.__file__).resolve().parents[1])
    script = (
        "import sys; before = set(sys.modules); import blockdet, blockdet.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "blockdet.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}
