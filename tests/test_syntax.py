"""Parser, printer, marking and the position functions."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import blockdet
from blockdet import (
    BlockSymbol,
    ExprSyntaxError,
    MarkedExpression,
    ast_from_json,
    ast_to_json,
    drop,
    is_trimmed,
    mark,
    parse,
    positions,
    to_text,
    width,
)
from blockdet.syntax import (
    Concat,
    Empty,
    Epsilon,
    Literal,
    Position,
    Star,
    Union,
    fold,
    language,
)
from blockdet.transform import chi

from conftest import (
    BLOCK_EXPRESSION_TEXTS,
    bounded_language,
    path_language,
    random_expression,
)


def lit(s):
    return Literal(BlockSymbol(s))


class TestParse:
    def test_union_tail_example(self):
        expected = Union(Concat(Star(Union(lit("a"), lit("b"))), lit("a")), Epsilon())
        assert parse("(a+b)*a+eps") == expected

    def test_block_example(self):
        ast = parse("[aa]*([ab]b+ba)b*")
        blocks = [sym.letters for sym in _symbols(ast)]
        assert blocks == ["aa", "ab", "b", "b", "a", "b"]

    def test_nested_star(self):
        assert parse("a**") == Star(Star(lit("a")))

    def test_precedence(self):
        assert parse("a+bc*") == Union(lit("a"), Concat(lit("b"), Star(lit("c"))))

    def test_dot_concat(self):
        assert parse("a.b") == parse("ab") == Concat(lit("a"), lit("b"))

    def test_whitespace_ignored(self):
        assert parse(" ( a + b ) * ") == parse("(a+b)*")

    def test_single_letter_block_equals_bare_letter(self):
        assert parse("[a]") == parse("a")

    def test_empty_keyword(self):
        assert parse("empty") == Empty()

    def test_empty_block_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("[]")

    def test_unterminated_block(self):
        with pytest.raises(ExprSyntaxError):
            parse("[ab")

    def test_trailing_garbage_has_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("a)b")
        assert err.value.position == 1

    def test_dangling_union(self):
        with pytest.raises(ExprSyntaxError):
            parse("a+")

    def test_bad_character(self):
        with pytest.raises(ExprSyntaxError):
            parse("a&b")

    @pytest.mark.parametrize(
        "text, message, column",
        [
            ("", "expected an expression", 0),
            ("a+", "expected an expression", 2),
            ("+a", "expected an expression", 0),
            ("(a", "expected )", 2),
            ("a)", "unexpected trailing input", 1),
            ("()", "expected an expression", 1),
            ("*", "expected an expression", 0),
            ("a.", "expected an expression", 2),
            (".a", "expected an expression", 0),
            ("a..b", "expected an expression", 2),
            ("a+*", "expected an expression", 2),
            ("(*a)", "expected an expression", 1),
            ("a(+b)", "expected an expression", 2),
            ("[]", "empty block []", 0),
            ("[ab", "unterminated block literal", 0),
            ("[a b]", "block letters must be alphanumeric", 1),
            ("a&b", "unexpected character '&'", 1),
        ],
    )
    def test_error_message_and_column(self, text, message, column):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at column {column})"
        assert err.value.position == column


class TestPrint:
    @pytest.mark.parametrize("text", BLOCK_EXPRESSION_TEXTS)
    def test_round_trip_corpus(self, text):
        ast = parse(text)
        assert parse(to_text(ast)) == ast

    def test_round_trip_random(self):
        rng = random.Random(20240817)
        for _ in range(300):
            ast = random_expression(rng, max_positions=6, max_width=3)
            assert parse(to_text(ast)) == ast

    def test_keyword_hazard_gets_dotted(self):
        ast = Concat(Concat(lit("e"), lit("p")), lit("s"))
        rendered = to_text(ast)
        assert parse(rendered) == ast

    def test_union_reassociation_guard(self):
        ast = Union(lit("a"), Union(lit("b"), lit("c")))
        assert parse(to_text(ast)) == ast

    def test_str_is_to_text(self):
        ast = parse("([ab]+c)*eps")
        assert str(ast) == to_text(ast) == "([ab]+c)*eps"
        assert f"{ast}" == "([ab]+c)*eps"


class TestEquality:
    """Expressions are equal, and hash alike, by structure and symbols."""

    def test_structure_decides(self):
        for left, right in [
            ("a+b", "b+a"),
            ("(ab)c", "a(bc)"),
            ("(a+b)+c", "a+(b+c)"),
            ("a*b", "(ab)*"),
            ("a**", "a*"),
            ("eps", "empty"),
            ("eps", "a"),
            ("[ab]", "ab"),
        ]:
            assert parse(left) != parse(right), (left, right)

    def test_equal_values_hash_alike(self):
        for left, right in [("[a]", "a"), ("(a)", "a"), ("a.b", "ab"), ("(a+b)*c", "(a+b)*c")]:
            assert parse(left) == parse(right)
            assert hash(parse(left)) == hash(parse(right))
        assert len({parse("a+b"), parse("b+a"), parse("(a+b)"), Union(lit("a"), lit("b"))}) == 2

    def test_marked_differs_from_plain(self):
        ast = parse("ab*")
        assert mark(ast).ast != ast
        assert mark(ast) != ast and ast != mark(ast)
        assert mark(ast) == mark(ast)
        assert drop(mark(ast)) == ast

    def test_other_types_are_not_expressions(self):
        assert parse("a") != "a"
        assert parse("a") != BlockSymbol("a")
        assert parse("eps") != ()


class TestMark:
    def test_union_tail_example(self):
        marked = mark(parse("(a+b)*a+eps"))
        assert marked.positions == (
            Position(1, BlockSymbol("a")),
            Position(2, BlockSymbol("b")),
            Position(3, BlockSymbol("a")),
        )

    def test_block_example(self):
        marked = mark(parse("[aa]*([ab]b+ba)b*"))
        assert [(p.index, p.block.letters) for p in marked.positions] == [
            (1, "aa"),
            (2, "ab"),
            (3, "b"),
            (4, "b"),
            (5, "a"),
            (6, "b"),
        ]

    def test_epsilon(self):
        assert mark(Epsilon()) == MarkedExpression(Epsilon(), ())

    def test_untrimmed_rejected(self):
        with pytest.raises(ValueError):
            mark(parse("a+empty"))
        with pytest.raises(ValueError, match="^expression is already marked$"):
            mark(mark(parse("a")).ast)

    def test_fold_rejects_a_non_node(self):
        with pytest.raises(TypeError, match="^not an expression node: 'a'$"):
            fold(Star("a"), None, None, None, None)
        # Every walk refuses it alike, the printer too.
        b = Literal(BlockSymbol("b"))
        for walk, expr, name in [
            (mark, Star("a"), "a"),
            (to_text, Star("a"), "a"),
            (to_text, Union("x+y", b), "x+y"),
            (str, Concat(b, "eps"), "eps"),
        ]:
            with pytest.raises(TypeError, match=f"^not an expression node: '{re.escape(name)}'$"):
                walk(expr)

    def test_empty_alone_is_trimmed(self):
        assert is_trimmed(Empty())
        assert mark(Empty()).positions == ()

    @pytest.mark.parametrize("text", BLOCK_EXPRESSION_TEXTS)
    def test_drop_mark_identity(self, text):
        ast = parse(text)
        assert drop(mark(ast)) == ast
        # `drop` on trees: marked, and letter-expanded.
        assert drop(mark(ast).ast) == ast
        expanded = chi(mark(ast))
        assert drop(expanded.ast) == drop(expanded)

    @pytest.mark.parametrize("text", BLOCK_EXPRESSION_TEXTS)
    def test_mark_drop_identity(self, text):
        marked = mark(parse(text))
        assert mark(drop(marked)) == marked


class TestPositions:
    def test_union_tail_table(self):
        marked = mark(parse("(a+b)*a+eps"))
        a1, b2, a3 = marked.positions
        table = positions(marked)
        assert table.nullable
        assert table.first == {a1, b2, a3}
        assert table.last == {a3}
        assert table.follow[a1] == {a1, b2, a3}

    def test_two_block_table(self):
        marked = mark(parse("[aa]*([ab]b+ba)b*"))
        aa1, ab2, b3, b4, a5, b6 = marked.positions
        table = positions(marked)
        assert not table.nullable
        assert table.first == {aa1, ab2, b4}
        assert table.follow[ab2] == {b3}
        assert table.follow[b3] == {b6}
        assert table.last == {b3, a5, b6}

    def test_unmarked_rejected(self):
        with pytest.raises(ValueError, match="^symbol occurs twice, input is not marked: a$"):
            positions(parse("a+a"))

    def test_epsilon_table(self):
        table = positions(mark(Epsilon()))
        assert table.nullable and not table.first and not table.last and not table.follow

    @pytest.mark.parametrize("text", BLOCK_EXPRESSION_TEXTS)
    def test_non_nullable_expressions_have_first_and_last(self, text):
        marked = mark(parse(text))
        table = positions(marked)
        if not table.nullable:
            assert table.first and table.last

    @pytest.mark.parametrize("text", BLOCK_EXPRESSION_TEXTS)
    def test_table_agrees_with_path_language(self, text):
        # Membership of marked words: inductive semantics vs position paths.
        marked = mark(parse(text))
        assert bounded_language(marked.ast, 6) == path_language(marked, 6)

    @pytest.mark.parametrize("text", BLOCK_EXPRESSION_TEXTS)
    def test_first_and_follow_match_enumeration(self, text):
        marked = mark(parse(text))
        if len(marked.positions) > 8:
            pytest.skip("bounded oracle is pinned to expressions with <= 8 positions")
        table = positions(marked)
        words = bounded_language(marked.ast, 6)
        first = {w[0] for w in words if w}
        follows = {p: set() for p in marked.positions}
        last = {w[-1] for w in words if w}
        for w in words:
            for x, y in zip(w, w[1:]):
                follows[x].add(y)
        assert first == table.first
        assert last == table.last
        assert follows == {p: set(table.follow[p]) for p in marked.positions}


class TestLanguage:
    def test_star_is_bounded_closure(self):
        words = language(parse("(ab)*"), 5)
        flat = {"".join(s.letters for s in w) for w in words}
        assert flat == {"", "ab", "abab"}

    def test_empty_language(self):
        assert language(Empty(), 4) == set()

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            language(Epsilon(), -1)


class TestJson:
    @pytest.mark.parametrize("text", BLOCK_EXPRESSION_TEXTS + ["empty", "eps"])
    def test_round_trip(self, text):
        ast = parse(text)
        assert ast_from_json(ast_to_json(ast)) == ast

    def test_kinds_are_stable(self):
        data = ast_to_json(parse("[ab]*+eps"))
        assert data == {
            "kind": "union",
            "left": {"kind": "star", "child": {"kind": "literal", "symbol": "ab"}},
            "right": {"kind": "epsilon"},
        }

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            ast_from_json({"kind": "nope"})
        with pytest.raises(ValueError, match="^expression JSON must be an object with a 'kind' field$"):
            ast_from_json(["star"])
        # Each once raised KeyError.
        for data, message in [
            ({"kind": "literal"}, "'literal' node has no 'symbol' field"),
            ({"kind": "union", "left": {"kind": "epsilon"}}, "'union' node has no 'right' field"),
            ({"kind": "concat", "right": {"kind": "epsilon"}}, "'concat' node has no 'left' field"),
            ({"kind": "star", "child": {"kind": "star"}}, "'star' node has no 'child' field"),
        ]:
            with pytest.raises(ValueError, match=f"^expression JSON {message}$"):
                ast_from_json(data)


# Runs every expression walk under a recursion limit far below the inputs'
# depth, so a walk that recurses per node fails here.  Round trips are
# compared as values, and expressions are hashed.
_DEEP_SCRIPT = """
import json, sys
from blockdet import (
    ast_from_json, ast_to_json, drop, glushkov, is_trimmed, mark, parse, positions, to_text, width,
)
from blockdet.determinism import marked_language_oracle
from blockdet.syntax import language
from blockdet.transform import chi
sys.setrecursionlimit(120)
texts, pairs = json.load(sys.stdin)
for text in texts:
    ast = parse(text)
    marked = mark(ast)
    table = positions(marked)
    automaton = glushkov(ast).automaton
    again = parse(to_text(ast))
    print(json.dumps({
        "text": to_text(ast),
        "equal": [
            again == ast,
            ast_from_json(ast_to_json(ast)) == ast,
            drop(marked) == ast,
            mark(ast) == marked,
            drop(chi(marked)) == ast,
            hash(again) == hash(ast),
        ],
        "table": [
            len(marked.positions),
            table.nullable,
            len(table.first),
            len(table.last),
            sum(map(len, table.follow.values())),
        ],
        "automaton": [len(automaton.states), len(automaton.transitions)],
        "width": width(ast),
        "trimmed": is_trimmed(ast),
        "words": len(language(ast, 2)),
        "oracle": marked_language_oracle("block", ast, 1, 2).verdict,
    }))
for text, other in pairs:
    ast, same, different = parse(text), parse(text), parse(other)
    print(json.dumps([same == ast, hash(same) == hash(ast), different != ast]))
"""


def test_deep_inputs_need_no_recursion():
    n = 3000
    stars = "a" + "*" * n
    # text -> (rendering, [positions, nullable, |first|, |last|, |follow|],
    #          [states, transitions], words of at most 2 symbols,
    #          1-block verdict of the marked-language oracle)
    cases = {
        "+".join(["a"] * n): ("+".join(["a"] * n), [n, False, n, n, 0], [n + 1, n], 1, False),
        "(" * n + "a" + ")" * n: ("a", [1, False, 1, 1, 0], [2, 1], 1, True),
        "a(" * n + "a" + ")" * n: (
            "a(" * (n - 1) + "aa" + ")" * (n - 1),
            [n + 1, False, 1, 1, n],
            [n + 2, n + 1],
            0,
            True,
        ),
        stars: (stars, [1, True, 1, 1, 1], [2, 2], 3, True),
        "(" * n + "a" + ")*" * n: (stars, [1, True, 1, 1, 1], [2, 2], 3, True),
    }
    # Compared and hashed only: each with an expression that differs last.
    wide = 100_000
    pairs = [
        ("+".join(["a"] * wide), "+".join(["a"] * (wide - 1) + ["b"])),
        ("a" + "*" * 5000, "a" + "*" * 4999),
    ]
    src = str(Path(blockdet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _DEEP_SCRIPT],
        input=json.dumps([list(cases), pairs]),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert len(lines) == len(cases) + len(pairs)
    for line, (text, table, automaton, words, oracle) in zip(lines, cases.values()):
        got = json.loads(line)
        assert got == {
            "text": text,
            "equal": [True] * 6,
            "table": table,
            "automaton": automaton,
            "width": 1,
            "trimmed": True,
            "words": words,
            "oracle": oracle,
        }
    assert [json.loads(line) for line in lines[len(cases) :]] == [[True] * 3] * len(pairs)


def test_width():
    assert width(parse("[abc]a+[ab]")) == 3
    assert width(parse("eps")) == 0


def _symbols(ast):
    if isinstance(ast, Literal):
        yield ast.symbol
    elif isinstance(ast, (Union, Concat)):
        yield from _symbols(ast.left)
        yield from _symbols(ast.right)
    elif isinstance(ast, Star):
        yield from _symbols(ast.child)
