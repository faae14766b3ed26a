"""Command-line behaviour: verbs, exit codes, formats, and composition."""

import io
import itertools
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import blockdet
from blockdet import bkw as bkw_module
from blockdet import (
    BlockAutomaton,
    WitnessSpec,
    ast_to_json,
    build,
    determinize,
    from_json,
    glushkov,
    isomorphic,
    mark,
    minimal_dfa,
    parse,
    to_json,
    to_text,
    trim,
)
from blockdet.cli import _json_text, main
from blockdet.witnesses import FAMILIES, block_bk, hanwood_mk

from conftest import glushkov_two_block, glushkov_two_lookahead, min_dfa_two_block, nested_orbits, random_expression


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert not err, err
    return code, json.loads(out)


class TestParseVerb:
    def test_round_trip(self, capsys):
        code, data = run_json(capsys, "parse", "(a+b)*a+eps")
        assert code == 0
        assert data["kind"] == "union"

    def test_syntax_error_is_exit_2(self, capsys):
        code, out, err = run(capsys, "parse", "a+")
        assert code == 2
        assert "blockdet:" in err
        assert run(capsys, "check", "block", "-k", "1", "(a") == (
            2,
            "",
            "blockdet: cannot parse expression '(a': expected ) (at column 2)\n",
        )

    def test_usage_error_is_exit_2(self, capsys):
        assert main(["parse"]) == 2


class TestGlushkovVerb:
    def test_json_has_positions(self, capsys):
        code, data = run_json(capsys, "glushkov", "[aa]*([ab]b+ba)b*")
        assert code == 0
        assert from_json(data) == glushkov_two_block()
        assert data["positions"]["aa_1"] == {"index": 1, "block": "aa"}

    def test_dot_output(self, capsys):
        code, out, err = run(capsys, "--dot", "glushkov", "a*")
        assert code == 0
        assert out.startswith("digraph")


class TestTransformVerbs:
    def test_min_det_expand_pipeline(self, capsys, tmp_path):
        source = tmp_path / "twoblock.json"
        source.write_text(json.dumps(to_json(glushkov_two_block())))
        code, expanded = run_json(capsys, "expand", str(source))
        assert code == 0
        expanded_path = tmp_path / "expanded.json"
        expanded_path.write_text(json.dumps(expanded))
        code, det = run_json(capsys, "det", str(expanded_path))
        assert code == 0
        det_path = tmp_path / "det.json"
        det_path.write_text(json.dumps(det))
        code, minimal = run_json(capsys, "min", str(det_path))
        assert code == 0
        assert isomorphic(from_json(minimal), min_dfa_two_block())

    def test_std_and_trim(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(to_json(min_dfa_two_block())))
        code, data = run_json(capsys, "std", str(path))
        assert code == 0
        assert data["initials"] == ["i'"]
        code, data = run_json(capsys, "trim", str(path))
        assert code == 0
        assert from_json(data) == min_dfa_two_block()

    def test_eliminate(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(to_json(hanwood_mk(2))))
        code, out, err = run(capsys, "eliminate", str(path), "-q", "q9")
        assert code == 2
        code, data = run_json(capsys, "std", str(path))
        std_path = tmp_path / "std.json"
        std_path.write_text(json.dumps(data))
        code, data = run_json(capsys, "eliminate", str(std_path), "-q", "q2")
        assert code == 0
        assert "aa" in {t["label"] for t in data["transitions"]}

    def test_eliminate_names_the_reason(self, capsys, tmp_path):
        # q2 is the initial state; q1 can go, and is eliminated first.
        path = tmp_path / "m.json"
        path.write_text(json.dumps(to_json(hanwood_mk(2))))
        for more in ([], ["-q", "q1"]):
            assert run(capsys, "eliminate", str(path), "-q", "q2", *more) == (
                2,
                "",
                "blockdet: state 'q2' is initial, final or has a self-loop\n",
            )


class TestCheckVerb:
    def test_one_unambiguous_pass(self, capsys):
        code, out, err = run(capsys, "check", "one-unambiguous", "(a+b)*a+eps")
        assert code == 0

    def test_block_language_dichotomy(self, capsys):
        code, _, _ = run(capsys, "check", "block", "-k", "2", "[aa]*([ab]b+ba)b*")
        assert code == 0
        code, _, _ = run(capsys, "check", "one-unambiguous", "[aa]*([ab]b+ba)b*")
        assert code == 1

    def test_lookahead(self, capsys):
        code, data = run_json(capsys, "check", "lookahead", "-k", "2", "b*a(b*a)*(a+b)")
        assert code == 0
        assert data["k_lookahead"]["verdict"] is True

    def test_min_lookahead(self, capsys):
        code, data = run_json(capsys, "check", "min-lookahead", "b*a(b*a)*(a+b)")
        assert code == 0
        assert data["min_lookahead"] == 2

    def test_min_lookahead_none(self, capsys):
        # The two a-branches of (a+a)* read common words of every length.
        code, data = run_json(capsys, "check", "min-lookahead", "(a+a)*")
        assert code == 1
        assert data["min_lookahead"] is None
        code, out, err = run(capsys, "--text", "check", "min-lookahead", "(a+a)*")
        assert code == 1
        assert out == "min lookahead: none\n"

    def test_report_names_every_check(self, capsys):
        # The check run fills its key; the others stay null.
        keys = ["deterministic", "k_block", "k_lookahead", "min_lookahead"]
        code, data = run_json(capsys, "check", "block", "-k", "2", "[aa]*([ab]b+ba)b*")
        assert code == 0 and list(data) == keys
        assert data == {
            "deterministic": True,
            "k_block": {"k": 2, "verdict": True, "violations": []},
            "k_lookahead": None,
            "min_lookahead": None,
        }
        code, data = run_json(capsys, "check", "lookahead", "-k", "2", "b*a(b*a)*(a+b)")
        assert code == 0 and list(data) == keys
        assert data["deterministic"] is False and data["k_block"] is None
        assert data["k_lookahead"]["verdict"] is True and data["min_lookahead"] is None
        code, data = run_json(capsys, "check", "lookahead", "-k", "1", "b*a(b*a)*(a+b)")
        assert code == 1
        assert data["k_lookahead"]["violations"][0] == [
            {"from": "a_2", "label": "a", "to": "a_4"},
            {"from": "a_2", "label": "a", "to": "a_5"},
        ]
        code, data = run_json(capsys, "check", "min-lookahead", "b*a(b*a)*(a+b)")
        assert code == 0 and list(data) == keys
        assert data == {
            "deterministic": False,
            "k_block": None,
            "k_lookahead": None,
            "min_lookahead": 2,
        }

    def test_missing_k_is_usage_error(self, capsys):
        code, out, err = run(capsys, "check", "block", "[aa]")
        assert code == 2

    def test_automaton_input_via_stdin(self, capsys, monkeypatch):
        payload = json.dumps(to_json(min_dfa_two_block()))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, err = run(capsys, "check", "one-unambiguous", "-")
        assert code == 1


class TestBkwVerb:
    def test_automaton_failure(self, capsys, tmp_path):
        path = tmp_path / "mindfa.json"
        path.write_text(json.dumps(to_json(min_dfa_two_block())))
        code, data = run_json(capsys, "bkw", str(path))
        assert code == 1
        assert data["verdict"] is False
        (step,) = data["steps"]
        assert step["failure"] == "orbit-property" and step["children"] == []

    def test_expression_goes_via_minimal_dfa(self, capsys):
        code, data = run_json(capsys, "bkw", "(a+b)*a+eps")
        assert code == 0
        assert data["verdict"] is True

    def test_text_render(self, capsys, tmp_path):
        path = tmp_path / "mindfa.json"
        path.write_text(json.dumps(to_json(min_dfa_two_block())))
        code, out, err = run(capsys, "--text", "bkw", str(path))
        assert code == 1
        assert "verdict: fail" in out

    def test_builds_only_the_printed_output(self, capsys, monkeypatch):
        built = []

        def counting(name, real):
            def wrapper(trace):
                built.append(name)
                return real(trace)

            return wrapper

        for name in ("bkw_to_json", "render_trace"):
            monkeypatch.setattr(bkw_module, name, counting(name, getattr(bkw_module, name)))
        assert run(capsys, "bkw", "(a+b)*a")[0] == 0 and built == ["bkw_to_json"]
        built.clear()
        assert run(capsys, "--text", "bkw", "(a+b)*a")[0] == 0 and built == ["render_trace"]
        built.clear()
        code, out, err = run(capsys, "--dot", "bkw", "(a+b)*a")
        assert (code, out, built) == (2, "", [])
        assert err == "blockdet: --dot applies only to commands that output an automaton\n"

    def test_shared_steps_print_once(self, capsys):
        # 12 nested orbits: 79 analyses, whose expanded tree has 217,010,224
        # nodes.  A writer that expands it again runs out of time here.
        def expire(signum, frame):
            raise TimeoutError("bkw expanded the shared trace")

        text = nested_orbits(12)
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            for fmt in ("--json", "--text"):
                code, out, err = run(capsys, fmt, "bkw", text)
                assert (code, err) == (0, "") and len(out) < 10**6
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert len(re.findall("^step ", out, re.M)) == 12 * 13 // 2 + 1

    def test_nested_orbits_answer(self, capsys):
        # 20 nested orbits: each distinct automaton is analysed once, and
        # verdicts never expand the factorially large shared tree.
        text = nested_orbits(20)
        code, data = run_json(capsys, "check", "one-unambiguous", text)
        assert (code, data) == (0, {"one_unambiguous": True})
        code, data = run_json(capsys, "certify", "-k", "1", text)
        assert (code, data) == (0, {"k": 1, "certified": True})


class TestCertifyVerb:
    def test_b2(self, capsys, tmp_path):
        path = tmp_path / "b2.json"
        path.write_text(json.dumps(to_json(block_bk(2))))
        code, data = run_json(capsys, "certify", str(path), "-k", "2")
        assert code == 0 and data["certified"] is True

    def test_failure_exit_code(self, capsys, tmp_path):
        path = tmp_path / "b3.json"
        path.write_text(json.dumps(to_json(block_bk(3))))
        code, data = run_json(capsys, "certify", str(path), "-k", "2")
        assert code == 1 and data["certified"] is False

    def test_more_blocks_than_letters(self, capsys):
        # 66 distinct tags: more than the 62 alphanumeric letters.
        tags = [f"[{x}{y}]" for x in "abcdefghijk" for y in "abcdef"]
        code, data = run_json(capsys, "certify", "(" + "+".join(tags) + ")*", "-k", "2")
        assert (code, data) == (0, {"k": 2, "certified": True})


class TestChiVerb:
    def test_letter_expansion(self, capsys):
        code, data = run_json(capsys, "chi", "([aba]+[abb])*[aa]")
        assert code == 0
        assert data["plain"] == "(aba+abb)*(aa)"
        assert data["omega"].startswith("(a@1.1b@1.2a@1.3")


class TestEnumerateVerb:
    def test_words(self, capsys, tmp_path):
        path = tmp_path / "mindfa.json"
        path.write_text(json.dumps(to_json(min_dfa_two_block())))
        code, data = run_json(capsys, "enumerate", str(path), "-n", "2")
        assert code == 0
        assert data["words"] == ["ba"]


class TestWitnessVerb:
    def test_automaton_family_emits_plain_json(self, capsys):
        code, data = run_json(capsys, "witness", "hanwood_Mk", "-k", "3")
        assert code == 0
        assert from_json(data) == hanwood_mk(3)

    def test_expression_family_emits_bare_text(self, capsys):
        code, out, err = run(capsys, "witness", "hanwood_Fk_expr", "-k", "3")
        assert code == 0
        assert out.strip() == "(aa([aa]a)*([ab]a+bb)+ba)b*"

    def test_verify_flag(self, capsys):
        code, data = run_json(capsys, "witness", "block_Ak", "-k", "2", "--verify")
        assert code == 0
        assert data["passed"] is True
        assert any("B_k" in c["name"] for c in data["claims"])

    def test_parameter_cap_respected(self, capsys):
        code, out, err = run(capsys, "witness", "unary_Aj", "-k", "9", "--verify")
        assert code == 2
        code, out, err = run(
            capsys, "witness", "unary_Aj", "-k", "7", "--verify", "--max-param", "7"
        )
        assert code == 0

    def test_prop1_composition(self, capsys, tmp_path):
        # witness hanwood_Mk -k 3  vs  glushkov `witness hanwood_Fk_expr -k 3`
        code, mk_json = run_json(capsys, "witness", "hanwood_Mk", "-k", "3")
        assert code == 0
        code, expr_text, _ = run(capsys, "witness", "hanwood_Fk_expr", "-k", "3")
        assert code == 0
        code, glushkov_json = run_json(capsys, "glushkov", expr_text.strip())
        assert code == 0
        left = tmp_path / "mk.json"
        right = tmp_path / "fk.json"
        left.write_text(json.dumps(mk_json))
        right.write_text(json.dumps(glushkov_json))
        code, data = run_json(capsys, "equiv", str(left), str(right))
        assert code == 0
        assert data["equivalent"] is True


class TestEquivVerb:
    def test_expression_arguments(self, capsys):
        code, data = run_json(capsys, "equiv", "(a+b)*a+eps", "(a+b)*a+eps")
        assert code == 0

    def test_inequivalent_exit_code(self, capsys):
        code, data = run_json(capsys, "equiv", "a", "b")
        assert code == 1
        assert data == {"equivalent": False, "counterexample": "a"}

    def test_counterexample_is_shortest(self, capsys):
        # The languages first differ at length 3: bbb is in the right one only.
        code, data = run_json(capsys, "equiv", "(a+b)*a(a+b)", "(a+b)*a(a+b)+bbb")
        assert code == 1
        assert data["counterexample"] == "bbb"
        code, data = run_json(capsys, "equiv", "eps+a", "a")
        assert data == {"equivalent": False, "counterexample": ""}

    def test_text_output(self, capsys):
        assert run(capsys, "--text", "equiv", "a*", "[aa]*") == (
            1,
            'equivalent: False\ncounterexample: "a"\n',
            "",
        )
        assert run(capsys, "--text", "equiv", "[aa]*", "(aa)*") == (0, "equivalent: True\n", "")


class TestDeclaredAlphabet:
    """A JSON file may declare labels that no transition uses.  The alphabet
    is the labels used, so such a declaration changes no answer: not even a
    label wider than every used one, which once made `check block` and
    `certify` fail and `det` and the lookahead checks refuse the file."""

    VERBS = [
        *(["check", prop, "-k", k] for prop in ("one-unambiguous", "block", "lookahead", "min-lookahead")
          for k in ("1", "2")),
        ["bkw"], ["certify", "-k", "1"], ["certify", "-k", "2"],
        ["det"], ["min"], ["trim"], ["expand"], ["std"], ["enumerate", "-n", "3"],
    ]

    def test_declared_alphabet_changes_no_answer(self, capsys, tmp_path):
        rng = random.Random(2121)
        automata = [glushkov(random_expression(rng, 5, 1 + i % 3)).automaton for i in range(9)]
        for _ in range(4):  # with several initials and useless states
            states = [f"q{i}" for i in range(4)]
            automata.append(BlockAutomaton.make(
                states=states,
                initials=rng.sample(states, 2),
                finals=rng.sample(states, 2),
                transitions=[(rng.choice(states), rng.choice(["a", "b", "ab"][: rng.randint(1, 3)]),
                              rng.choice(states)) for _ in range(6)],
            ))
        trimmed = 0
        for n, a in enumerate(automata):
            data = to_json(a)
            del data["alphabet"]
            used = sorted(a.alphabet)
            variants = [data] + [
                {**data, "alphabet": declared}
                for declared in (used, used + ["z"], used + ["z" * (a.width + 1)])
            ]
            paths = []
            for m, variant in enumerate(variants):
                path = tmp_path / f"a{n}_{m}.json"
                path.write_text(json.dumps(variant))
                paths.append(str(path))
                read = from_json(variant)
                assert read == a and read.alphabet == a.alphabet
                if trim(a) is a:
                    assert trim(read) is read
                    trimmed += 1
            for fmt in ("--json", "--text"):
                for verb in self.VERBS:
                    # The input follows the verb's positional arguments.
                    at = 2 if verb[0] == "check" else 1
                    answers = {run(capsys, fmt, *verb[:at], path, *verb[at:]) for path in paths}
                    assert len(answers) == 1, (n, fmt, verb, answers)
        assert trimmed >= 36


def _declared_verbs(capsys) -> list:
    """The verbs the top-level usage line lists."""
    code, out, _ = run(capsys, "-h")
    assert code == 0
    return re.search(r"\{([\w,-]+)\}", out).group(1).split(",")


def _prints_automaton(family: str) -> bool:
    return isinstance(build(WitnessSpec(family, 2)), BlockAutomaton)


_DOT_REFUSED = "blockdet: --dot applies only to commands that output an automaton\n"


class TestVerbFormatMatrix:
    """Every verb under --json, --text and --dot."""

    # Commands that print an automaton: JSON under --text, DOT under --dot.
    AUTOMATA = [
        ["glushkov", "(a+b)*a"],
        ["trim", "(a+b)*a"],
        ["std", "(a+b)*a"],
        ["expand", "[ab]*a"],
        ["det", "(a+b)*a"],
        ["min", "a*b"],
        ["eliminate", "ab", "-q", "a_1"],
        *(["witness", f, "-k", "2"] for f in FAMILIES if _prints_automaton(f)),
    ]
    # Commands with a text form of their own; --dot is refused.
    REPORTS = [
        ["parse", "(a+b)*a"],
        ["equiv", "a*", "[aa]*"],
        ["check", "one-unambiguous", "(a+b)*a"],
        ["check", "block", "-k", "2", "[aa]*([ab]b+ba)b*"],
        ["check", "lookahead", "-k", "2", "b*a(b*a)*(a+b)"],
        ["check", "min-lookahead", "(a+a)*"],
        ["bkw", "(a+b)*a"],
        ["certify", "[ab]*", "-k", "2"],
        ["chi", "[ab]*a"],
        ["enumerate", "(a+b)*a", "-n", "2"],
        ["witness", "block_Ak", "-k", "2", "--verify"],
        ["witness", "block_expr", "-k", "2", "--verify"],
    ]
    # Expression witnesses print bare expression text under --json and --text.
    EXPRESSIONS = [["witness", f, "-k", "2"] for f in FAMILIES if not _prints_automaton(f)]

    def test_every_verb_is_covered(self, capsys):
        covered = {argv[0] for argv in self.AUTOMATA + self.REPORTS + self.EXPRESSIONS}
        assert covered == set(_declared_verbs(capsys))
        witnesses = [argv for argv in self.AUTOMATA + self.EXPRESSIONS if argv[0] == "witness"]
        assert {argv[1] for argv in witnesses} == set(FAMILIES)

    @pytest.mark.parametrize("argv", AUTOMATA, ids=" ".join)
    def test_automaton_output(self, capsys, argv):
        code, out, err = run(capsys, "--json", *argv)
        assert (code, err) == (0, "")
        from_json(json.loads(out))
        assert run(capsys, "--text", *argv) == (0, out, "")
        code, dot, err = run(capsys, "--dot", *argv)
        assert (code, err) == (0, "")
        assert dot.startswith("digraph")

    @pytest.mark.parametrize("argv", REPORTS, ids=" ".join)
    def test_report_output(self, capsys, argv):
        code, out, err = run(capsys, "--json", *argv)
        assert code in (0, 1) and not err
        json.loads(out)
        text_code, text, err = run(capsys, "--text", *argv)
        assert (text_code, err) == (code, "")
        assert text != out
        assert run(capsys, "--dot", *argv) == (2, "", _DOT_REFUSED)

    @pytest.mark.parametrize("argv", EXPRESSIONS, ids=" ".join)
    def test_expression_output(self, capsys, argv):
        code, out, err = run(capsys, "--json", *argv)
        assert (code, err) == (0, "")
        parse(out.strip())
        assert run(capsys, "--text", *argv) == (0, out, "")
        assert run(capsys, "--dot", *argv) == (2, "", _DOT_REFUSED)


class TestEmptyLanguage:
    # Every verb that reads an expression but `eliminate`, which would have
    # only the initial state to remove.
    ARGV = [
        ["parse", "empty"],
        ["glushkov", "empty"],
        *([op, "empty"] for op in ("trim", "std", "expand", "det", "min")),
        ["equiv", "empty", "empty"],
        ["check", "one-unambiguous", "empty"],
        ["check", "block", "-k", "1", "empty"],
        ["check", "lookahead", "-k", "1", "empty"],
        ["check", "min-lookahead", "empty"],
        ["bkw", "empty"],
        ["certify", "empty", "-k", "1"],
        ["chi", "empty"],
        ["enumerate", "empty", "-n", "3"],
    ]

    def test_every_verb_answers(self, capsys):
        assert {argv[0] for argv in self.ARGV} == set(_declared_verbs(capsys)) - {"eliminate", "witness"}
        for argv in self.ARGV:
            for fmt in ("--json", "--text"):
                code, out, err = run(capsys, fmt, *argv)
                assert code in (0, 1) and err == "", argv

    def test_equiv_names_a_word(self, capsys):
        assert run_json(capsys, "equiv", "empty", "a") == (1, {"equivalent": False, "counterexample": "a"})


class TestErrors:
    def test_unreadable_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, "trim", str(bad))
        assert code == 2

    def test_dot_on_non_automaton_verb(self, capsys):
        code, out, err = run(capsys, "--dot", "parse", "a+b")
        assert code == 2

    def test_huge_parameter_is_exit_2_not_fail(self, capsys):
        # Past the size budget every family refuses before building: a
        # 10^20-state list or a 2 * 10^20-letter expression would never end.
        def expire(signum, frame):
            raise TimeoutError("a builder ran past the budget")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            for family in FAMILIES:
                for k in (250_000, 10**20):
                    assert run(capsys, "witness", family, "-k", str(k)) == (
                        2,
                        "",
                        "blockdet: parameter must be <= 249999\n",
                    )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_dot_refused_before_any_work(self, capsys, monkeypatch):
        # Verbs that never print an automaton, and witness --verify and the
        # expression families, refuse --dot before any work: the checker,
        # the reader and the builders are never called, and parse and -k
        # errors come second.
        def fail(*args):
            raise AssertionError("ran before refusing --dot")

        monkeypatch.setattr("blockdet.determinism.is_k_block_deterministic", fail)
        union = "+".join(["aaaaa"] * 400)
        assert run(capsys, "--dot", "check", "block", "-k", "5", union) == (2, "", _DOT_REFUSED)
        assert run(capsys, "--dot", "check", "block", "(") == (2, "", _DOT_REFUSED)
        monkeypatch.setattr("blockdet.cli._read_input", fail)
        monkeypatch.setattr("blockdet.cli.sx.parse", fail)
        monkeypatch.setattr("blockdet.witnesses.verify", fail)
        monkeypatch.setattr("blockdet.witnesses.build", fail)
        for argv in TestVerbFormatMatrix.REPORTS + TestVerbFormatMatrix.EXPRESSIONS:
            assert run(capsys, "--dot", *argv) == (2, "", _DOT_REFUSED)

    def test_verify_refuses_before_building(self, capsys, monkeypatch):
        # A member with 10^20 states would never be built.
        def build(spec):
            raise AssertionError(f"built {spec.family} before checking the cap")

        monkeypatch.setattr("blockdet.witnesses.build", build)
        for family in FAMILIES:
            assert run(capsys, "witness", family, "-k", str(10**20), "--verify") == (
                2,
                "",
                f"blockdet: parameter {10**20} exceeds the verification cap 6\n",
            )

    def test_wide_union_answers(self, capsys):
        code, data = run_json(capsys, "check", "one-unambiguous", "+".join(["a"] * 1100))
        assert code == 0
        assert data == {"one_unambiguous": True}

    def test_deep_parentheses_answer(self, capsys):
        code, data = run_json(capsys, "parse", "(" * 1500 + "a" + ")" * 1500)
        assert code == 0
        assert data == run_json(capsys, "parse", "a")[1]

    def test_long_chains_min_lookahead(self, capsys, tmp_path):
        path = tmp_path / "chains.json"
        path.write_text(json.dumps(to_json(_two_chains())))
        code, data = run_json(capsys, "check", "min-lookahead", str(path))
        assert code == 0
        assert data["min_lookahead"] == 1500
        code, data = run_json(capsys, "check", "lookahead", str(path), "-k", "1499")
        assert code == 1
        assert [[t["to"] for t in pair] for pair in data["k_lookahead"]["violations"]] == [["x1", "y1"]]
        code, data = run_json(capsys, "check", "lookahead", str(path), "-k", "1500")
        assert code == 0
        assert data["k_lookahead"]["violations"] == []

    def test_lookahead_needs_no_recursion(self, tmp_path):
        # The chains above and two a-loops that read a^n for every n, under
        # a recursion limit of 60.
        loops = BlockAutomaton.make(
            states={"i", "p", "q"},
            initials={"i"},
            finals={"p", "q"},
            transitions=[("i", "a", "p"), ("i", "a", "q"), ("p", "a", "p"), ("q", "a", "q")],
        )
        paths = []
        for name, a in [("chains", _two_chains()), ("loops", loops)]:
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(to_json(a)))
        src = str(Path(blockdet.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _NO_RECURSION_SCRIPT, *map(str, paths)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert json.loads(done.stdout) == [[1500, 1, 0], [None, 1, 1]]

    @pytest.mark.parametrize("depth", [1, 40, 900, 3000])
    def test_deeply_nested_ast_json(self, capsys, depth):
        # The standard JSON encoder recurses once per level and refuses the
        # deepest of these; the output must still be what it writes.
        code, out, err = run(capsys, "parse", "a" + "*" * depth)
        assert code == 0 and not err
        pad = "  "
        expected = (
            "{\n"
            + "".join(f'{pad * (d + 1)}"kind": "star",\n{pad * (d + 1)}"child": {{\n' for d in range(depth))
            + f'{pad * (depth + 1)}"kind": "literal",\n{pad * (depth + 1)}"symbol": "a"\n'
            + "".join(f"{pad * d}}}\n" for d in reversed(range(depth + 1)))
        )
        assert out == expected
        if depth < 990:
            ast = parse("a" + "*" * depth)
            assert out == json.dumps(ast_to_json(ast), indent=2, ensure_ascii=False) + "\n"
        code, out, err = run(capsys, "chi", "[ab]" + "*" * depth)
        assert code == 0 and not err
        assert out.endswith("}\n}\n")

    def test_json_writer_matches_json_dumps(self):
        rng = random.Random(3)
        leaves = [None, True, False, 0, -7, 2**70, 1.5, float("inf"), "", 'a"b\\c\n\u00e9\x01', [], {}, ()]

        def payload(depth):
            r = rng.random()
            if depth > 4 or r < 0.3:
                return rng.choice(leaves)
            if r < 0.75:
                return [payload(depth + 1) for _ in range(rng.randrange(4))]
            if r < 0.85:
                return tuple(payload(depth + 1) for _ in range(rng.randrange(3)))
            return {rng.choice(["k", "\u00e9", 'q"']) + str(i): payload(depth + 1) for i in range(rng.randrange(4))}

        for _ in range(2000):
            value = payload(0)
            assert _json_text(value) == json.dumps(value, indent=2, ensure_ascii=False)

    def test_recursion_error_is_exit_2_not_fail(self, capsys, monkeypatch):
        def overflow(value):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("blockdet.bkw.is_one_unambiguous", overflow)
        code, out, err = run(capsys, "check", "one-unambiguous", "a")
        assert code == 2
        assert err.startswith("blockdet: input too large to process")

    def test_overflow_error_is_exit_2_not_fail(self, capsys, monkeypatch):
        # No witness parameter reaches an OverflowError since the size
        # budget, so raise one where a checker would.
        def overflow(value):
            raise OverflowError("cannot fit 'int' into an index-sized integer")

        monkeypatch.setattr("blockdet.bkw.is_one_unambiguous", overflow)
        assert run(capsys, "check", "one-unambiguous", "a") == (
            2,
            "",
            "blockdet: input too large to process (OverflowError)\n",
        )


def _two_chains() -> BlockAutomaton:
    """Two a-chains of 1500 and 1499 states off one initial state: both
    branches read a^1498 after the shared first letter and no more."""
    xs = [f"x{j}" for j in range(1, 1501)]
    ys = [f"y{j}" for j in range(1, 1500)]
    transitions = [("i", "a", xs[0]), ("i", "a", ys[0])]
    transitions += [(u, "a", v) for chain in (xs, ys) for u, v in zip(chain, chain[1:])]
    return BlockAutomaton.make(
        states=["i", *xs, *ys], initials=["i"], finals=[xs[-1], ys[-1]], transitions=transitions
    )


# Per automaton: the least lookahead, and the violation counts at k = 1499
# and k = 1500, each computed under the limit on a freshly read automaton.
_NO_RECURSION_SCRIPT = """
import json, sys
from blockdet import from_json, is_k_lookahead_deterministic, min_lookahead
texts = [open(path).read() for path in sys.argv[1:]]
sys.setrecursionlimit(60)
answers = []
for text in texts:
    read = lambda: from_json(json.loads(text))
    answers.append([
        min_lookahead(read()),
        len(is_k_lookahead_deterministic(read(), 1499).violations),
        len(is_k_lookahead_deterministic(read(), 1500).violations),
    ])
print(json.dumps(answers))
"""


_CORPUS_SCRIPT = """
import contextlib, io, json, sys
from blockdet.cli import main
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(argv, code, out.getvalue(), err.getvalue())
"""


def _run_corpus(corpus) -> tuple[str, str]:
    """The corpus's output under PYTHONHASHSEED 0 and 1, from two
    subprocesses run side by side."""
    src = str(Path(blockdet.__file__).resolve().parents[1])
    runs = []
    for hash_seed in (0, 1):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs.append(subprocess.Popen(
            [sys.executable, "-c", _CORPUS_SCRIPT, json.dumps(corpus)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ))
    outputs = []
    for done in runs:
        out, err = done.communicate(timeout=120)
        assert done.returncode == 0, err
        outputs.append(out)
    return outputs[0], outputs[1]


class TestHashSeedIndependence:
    def test_output_does_not_depend_on_hash_seed(self, tmp_path):
        # Automata are frozensets, so iteration order follows the hash seed;
        # output must not.
        tags = ["".join(p) for p in itertools.product("abcd", repeat=3)][:63]
        tag_group = "(" + "+".join(f"[{t}]" for t in tags) + ")*[zz]"
        rng = random.Random(8)
        states = [f"q{i}" for i in range(6)]
        wide = BlockAutomaton.make(
            states=states,
            initials={"q0", "q2", "q3"},
            finals={"q1", "q4"},
            transitions=[
                (rng.choice(states), rng.choice("abcdefg"), rng.choice(states)) for _ in range(30)
            ],
        )
        # Three letters, several initials, one final state moved: several
        # words of the least differing length tell the two apart.
        letters = BlockAutomaton.make(
            states=states,
            initials={"q0", "q1", "q4"},
            finals={"q2", "q5"},
            transitions=[
                (rng.choice(states), rng.choice("abc"), rng.choice(states)) for _ in range(18)
            ],
        )
        files = {
            "left": letters,
            "right": BlockAutomaton.make(
                states=states,
                initials=letters.initials,
                finals={"q3", "q5"},
                transitions=letters.transitions,
            ),
            "nfa": glushkov_two_lookahead(),
            "dfa": determinize(glushkov_two_lookahead()),
            "blocks": glushkov_two_block(),
            "tags": glushkov(parse(tag_group)).automaton,
            "wide": wide,
        }
        for name, a in files.items():
            data = to_json(a)
            if name == "wide":  # a declared letter that no transition uses
                data["alphabet"] = list("abcdefgh")
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        left, right, nfa, dfa, blocks, tag_file, wide_file = (
            str(tmp_path / f"{name}.json") for name in files
        )
        recursing = "(c+[ba])*+([cca]*[cb])*"
        content_model = "h(eps+t)m*(p+d+s)(b(eps+i))*(u+ol)*(x(y(eps+z))*)*e"
        corpus = [
            ["bkw", recursing],
            ["--text", "bkw", recursing],
            ["min", dfa],
            ["det", nfa],
            ["std", nfa],
            ["expand", blocks],
            ["eliminate", nfa, "-q", "a_2"],
            ["check", "block", "-k", "1", "(a+ab+b)*a(a+b)"],
            # 63 orbit states that minimize to one shared state
            ["certify", "-k", "3", tag_group],
            ["bkw", tag_file],
            ["--text", "bkw", tag_file],
            # subtrees shared across nodes, each printed once
            ["bkw", nested_orbits(5)],
            ["--text", "bkw", nested_orbits(5)],
            ["bkw", nested_orbits(12)],
            ["--text", "bkw", nested_orbits(12)],
            ["det", wide_file],
            ["equiv", left, right],
            ["--text", "equiv", left, right],
            # orbits and refinement read one edge table; `det` returns its
            # deterministic Glushkov input trimmed
            *(
                [verb, text]
                for text in (content_model, nested_orbits(4))
                for verb in ("bkw", "min", "det")
            ),
        ]
        first, second = _run_corpus(corpus)
        # a nested orbit, listed under its parent's step
        assert "\n  orbit {@3,cca_3,{@1,@2}} from cca_3, minimized: step 8\n" in first
        assert '"violations": [\n      [' in first
        assert len(re.findall(r"ddc_63\} from \w+, minimized: step 1\n", first)) == 63
        assert "\nstep 1: 1 states, 63 transitions, S={aaa,aab," in first
        five = first.split(str(["--text", "bkw", nested_orbits(5)]))[1].split("\n[")[0]
        assert len(re.findall("^step ", five, re.M)) == 5 * 6 // 2 + 1
        assert '"from": "{q0,q2,q3}"' in first
        assert '"counterexample": "' in first and '\ncounterexample: "' in first
        assert '"context": "orbit {o_10,{l_11,u_9}} from {l_11,u_9}, minimized"' in first
        assert second == first

    def test_every_verb_format_and_family(self, capsys):
        # Seed 48: `empty` and two random expressions, of width 1 and 2,
        # through every verb, and each witness family with and without
        # --verify, in all three formats.
        rng = random.Random(48)
        texts = ["empty"] + [to_text(random_expression(rng, 5, w)) for w in (1, 2)]
        commands = []
        for text in texts:
            state = min((p.state_name() for p in mark(parse(text)).positions), default="i")
            commands += [
                ["parse", text],
                ["glushkov", text],
                *([op, text] for op in ("trim", "std", "expand", "det", "min")),
                ["eliminate", text, "-q", state],
                ["equiv", text, "(a+b)*a"],
                *(["check", p, text, "-k", "2"] for p in ("one-unambiguous", "block", "lookahead", "min-lookahead")),
                ["bkw", text],
                ["certify", text, "-k", "2"],
                ["chi", text],
                ["enumerate", text, "-n", "3"],
            ]
        commands += [["witness", f, "-k", "2", *v] for f in FAMILIES for v in ([], ["--verify"])]
        assert {argv[0] for argv in commands} == set(_declared_verbs(capsys))
        corpus = [[fmt, *argv] for fmt in ("--json", "--text", "--dot") for argv in commands]
        first, second = _run_corpus(corpus)
        assert second == first


# Runs each argv through `main` and reports, rather than lets through, an
# exception `main` lets escape; anything else ends the child and fails.
_CONTRACT_SCRIPT = """
import contextlib, io, json, sys, traceback
from blockdet.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = traceback.format_exc()
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

_CONTRACT_CPU_S = 20
_CONTRACT_MEMORY = 1 << 30  # bytes of address space


def _limited():
    """Caps the child's CPU time and address space; runs in the child only."""
    resource.setrlimit(resource.RLIMIT_CPU, (_CONTRACT_CPU_S, _CONTRACT_CPU_S))
    resource.setrlimit(resource.RLIMIT_AS, (_CONTRACT_MEMORY, _CONTRACT_MEMORY))


_GOOD_FILE = {
    "states": ["i", "p"], "initials": ["i"], "finals": ["p"],
    "transitions": [{"from": "i", "label": "a", "to": "p"}],
}
# Fields that are not arrays of strings (of objects, for transitions); each
# was read as an answer once.
_MALFORMED_FIELDS = [
    ("states", "ip"),
    ("states", {"i": 1, "p": 2}),
    ("states", ["i", "p", None]),
    ("transitions", [{"from": "i", "label": 7, "to": "p"}]),
    ("transitions", {}),
    ("alphabet", "ab"),
]


def _contract_corpus(tmp_path: Path) -> list:
    """The adversarial commands, fixed ones first, then seeded random ones
    drawn from per-verb pools of hostile arguments.  Left out: `enumerate
    -n` past a few letters, which has no size budget."""
    files = {
        "list": [],
        "null": None,
        "no_states": {"initials": ["i"], "finals": [], "transitions": []},
        "empty_label": {
            "states": ["i", "p"], "initials": ["i"], "finals": ["p"],
            "transitions": [{"from": "i", "label": "", "to": "p"}],
        },
        "undeclared_label": {
            "states": ["i", "p"], "initials": ["i"], "finals": ["p"], "alphabet": ["a"],
            "transitions": [{"from": "i", "label": "b", "to": "p"}],
        },
        "list_transitions": {
            "states": ["i", "p"], "initials": ["i"], "finals": ["p"], "transitions": [["i", "a", "p"]],
        },
        **{
            f"malformed_{field}_{n}": {**_GOOD_FILE, field: value}
            for n, (field, value) in enumerate(_MALFORMED_FIELDS)
        },
        # No object: refused before the optional alphabet is looked up.
        "malformed_top_array": ["states"],
        "malformed_top_string": "states",
        # Declared labels that are no blocks, though no transition uses them.
        "bad_block_empty": {**_GOOD_FILE, "alphabet": [""]},
        "bad_block_letters": {**_GOOD_FILE, "alphabet": ["a-b"]},
        "nfa": to_json(glushkov_two_lookahead()),
        "block_nfa": to_json(glushkov_two_block()),
        "dfa": to_json(min_dfa_two_block()),
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    path = {name: str(tmp_path / f"{name}.json") for name in files}
    deep, union = "(" * 3000 + "a" + ")" * 3000, "+".join(["a"] * 5000)
    huge = str(10**30)
    corpus = [
        ["witness", family, "-k", k, *verify]
        for family in FAMILIES
        for k in ("250000", str(10**20))
        for verify in ([], ["--verify"])
    ]
    corpus += [
        ["check", prop, text, "-k", k]
        for prop in ("block", "lookahead")
        for k in (huge, "0", "-3")
        for text in ("(a+b)*a", path["nfa"])
    ]
    corpus += [[*verb, deep] for verb in (
        ["parse"], ["glushkov"], ["chi"], ["trim"], ["std"], ["expand"], ["det"], ["min"],
        ["bkw"], ["check", "one-unambiguous"], ["check", "min-lookahead"],
        ["check", "block", "-k", "1"], ["check", "lookahead", "-k", "2"],
        ["certify", "-k", huge], ["enumerate", "-n", "3"], ["eliminate", "-q", "a_1"],
    )]
    corpus += [["equiv", deep, "a"], ["--text", "parse", union], ["bkw", union]]
    # A right-nested chain of 20,000 terms, printed back as it came.
    right_nested = "a+a"
    for _ in range(20000 - 2):
        right_nested = f"a+({right_nested})"
    corpus += [["--text", "parse", right_nested]]
    corpus += [["check", "one-unambiguous", union]]
    # Copying the growing First/Last sets at every union node would take
    # 7.6 and 11.9 s of CPU on 20,000 terms and four times that on 40,000,
    # past the child's limit; merging them in place takes under a second.
    wide = "+".join(["a"] * 40000)
    corpus += [["check", "min-lookahead", wide], ["check", "one-unambiguous", wide]]
    corpus += [
        [*verb, path[name]]
        for name in files
        for verb in (["min"], ["bkw"], ["det"], ["check", "one-unambiguous"])
    ]
    corpus += [["--dot", "check", "block", "a*", "-k", "1"], ["--dot", "bkw", "a*"]]
    corpus += [["--dot", "enumerate", "a*", "-n", "2"]]
    corpus += [["enumerate", "a*", "-n", str(10**20)], ["enumerate", "(a+b)*", "-n", "40"]]

    rng = random.Random(19)
    texts = [to_text(random_expression(rng, 5, 1 + i % 3)) for i in range(15)]
    texts += ["", "(", "a+", "[]", "[a b]", "a&b", "eps", "empty", "a**", nested_orbits(3)]
    inputs = texts + list(path.values()) + [str(tmp_path / "missing.json"), "-k"]
    # A pool lists alternatives for one place of the command; a tuple is
    # spliced in, so () leaves an optional argument out.
    k = [("-k", v) for v in ("1", "2", "3", "0", "-3", huge, "x")] + [()]
    pools = {
        "parse": [texts], "glushkov": [texts], "chi": [texts],
        **{op: [inputs] for op in ("trim", "std", "expand", "det", "min", "bkw")},
        "eliminate": [inputs, [("-q", q) for q in ("a_1", "a_2", "b_3", "i", "q", "")] + [("-q",)]],
        "equiv": [inputs, inputs],
        "check": [["one-unambiguous", "block", "lookahead", "min-lookahead", "nope"], inputs, k],
        "certify": [inputs, k],
        "enumerate": [inputs, [("-n", n) for n in ("0", "2", "-3", "x")] + [()]],
        "witness": [
            [*FAMILIES, "nope"],
            [("-k", v) for v in ("1", "2", "0", "-3", "250000", str(10**20))],
            [(), ("--verify",), ("--verify", "--max-param", "3"), ("--verify", "--max-param", "-3"),
             ("--max-param", huge)],
        ],
    }
    for _ in range(300):
        verb = rng.choice(sorted(pools))
        argv = [*rng.choice([(), ("--json",), ("--text",), ("--dot",)]), verb]
        for pool in pools[verb]:
            choice = rng.choice(pool)
            if rng.random() < 0.97:  # else a required argument may go missing
                argv += choice if isinstance(choice, tuple) else [choice]
        if rng.random() < 0.05:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(inputs))
        corpus.append(argv)
    return corpus


def test_exit_code_contract(tmp_path):
    # 0 = holds, 1 = fails, 2 = error, on every command: hostile inputs end
    # in one of the three, with no traceback, inside the child's limits.
    src = str(Path(blockdet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    corpus = _contract_corpus(tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", _CONTRACT_SCRIPT],
        input=json.dumps(corpus),
        env=env,
        capture_output=True,
        text=True,
        timeout=4 * _CONTRACT_CPU_S,
        preexec_fn=_limited,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    results = json.loads(done.stdout)
    assert len(results) == len(corpus)
    for argv, (code, out, err) in zip(corpus, results):
        shown = [arg if len(arg) < 40 else arg[:20] + "…" for arg in argv]
        assert code in (0, 1, 2), (shown, code)
        assert "Traceback" not in err, (shown, err)
        # An error says why on stderr; an answer is printed on stdout alone.
        assert bool(err) == (code == 2) and bool(out) == (code != 2), (shown, code, out, err)
        # `min`, `bkw` and `det` given a bad file alone refuse it for its
        # content; with a random extra argument they make a usage error.
        reads_file = argv[:-1] in (["min"], ["bkw"], ["det"])
        if reads_file and Path(argv[-1]).stem.startswith("malformed_"):
            assert code == 2 and err.startswith("blockdet: malformed automaton JSON: "), (argv, err)
        if reads_file and Path(argv[-1]).stem.startswith("bad_block_"):
            assert code == 2 and re.match("blockdet: (a block needs|block letters must)", err), (argv, err)
    codes = [code for code, _, _ in results]
    assert min(codes.count(code) for code in (0, 1, 2)) >= 10  # the corpus reaches all three
    # The same contract through `python -m blockdet`, the console script's path.
    def block_report(verdict: bool, *violations) -> str:
        k_block = {"k": 1, "verdict": verdict, "violations": list(violations)}
        report = {"deterministic": verdict, "k_block": k_block, "k_lookahead": None, "min_lookahead": None}
        return json.dumps(report, indent=2) + "\n"

    clash = [{"from": "i", "label": "a", "to": "a_1"}, {"from": "i", "label": "a", "to": "a_2"}]
    for argv, expected in [
        (["check", "block", "ab*", "-k", "1"], (0, block_report(True), "")),
        (["check", "block", "a+ab", "-k", "1"], (1, block_report(False, clash), "")),
        (["check", "block", "(a", "-k", "1"], (2, "", "blockdet: cannot parse expression '(a': expected ) (at column 2)\n")),
        (["check", "one-unambiguous", "(a+b)*a"], (0, '{\n  "one_unambiguous": true\n}\n', "")),
        (["--text", "check", "block", "a+ab", "-k", "2"], (1, "2-block deterministic: False\n", "")),
        (["witness", "unary_Aj", "-k", str(10**20)], (2, "", "blockdet: parameter must be <= 249999\n")),
        (["enumerate", "(a+b)*", "-n", "40"], (2, "", "blockdet: words up to 40 letters hold over 1,000,000 letters\n")),
    ]:
        done = subprocess.run(
            [sys.executable, "-m", "blockdet", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=4 * _CONTRACT_CPU_S,
            preexec_fn=_limited,
        )
        assert (done.returncode, done.stdout, done.stderr) == expected
