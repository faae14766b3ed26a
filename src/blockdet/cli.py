"""Command-line front end.

Exit codes: 0 = success / the checked property holds, 1 = the property fails
(report still printed on stdout), 2 = usage, parse or I/O error, or an input
too large to process.  Automata are read from files or standard input as
JSON; expressions are inline arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import automaton as au
from . import bkw as bk
from . import determinism as dt
from . import syntax as sx
from . import transform as tf
from . import witnesses as wt
from .glushkov import glushkov as _glushkov
from .glushkov import glushkov_to_json as _glushkov_to_json


class CliError(Exception):
    pass


def _read_input(arg: str):
    """An argument is an automaton when it names a file or is `-` (stdin);
    anything else is expression text."""
    if arg == "-":
        return au.from_json(json.load(sys.stdin))
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as handle:
            return au.from_json(json.load(handle))
    try:
        return sx.parse(arg)
    except sx.ExprSyntaxError as exc:
        raise CliError(f"cannot parse expression {arg!r}: {exc}") from exc


def _as_automaton(value) -> au.BlockAutomaton:
    if isinstance(value, au.BlockAutomaton):
        return value
    return _glushkov(value).automaton


def _emit(payload, fmt: str, a: au.BlockAutomaton | None = None, text: str | None = None):
    if fmt == "dot":
        if a is None:
            raise CliError("--dot applies only to commands that output an automaton")
        print(au.to_dot(a))
    elif fmt == "text" and text is not None:
        print(text)
    else:
        print(_json_text(payload))


_encode_leaf = json.JSONEncoder(ensure_ascii=False).encode
_END = object()


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2, ensure_ascii=False)``, written from an
    explicit stack: the standard encoder recurses once per nesting level, so
    it refuses an AST nested about a thousand levels deep."""
    parts: list[str] = []
    # One frame per open non-empty container: its remaining items, its
    # closing bracket and the separator before its next item.
    frames: list[list] = []
    value = payload
    while True:
        if isinstance(value, dict) and value:
            parts.append("{")
            frames.append([iter(value.items()), "}", "\n"])
        elif isinstance(value, (list, tuple)) and value:
            parts.append("[")
            frames.append([iter(value), "]", "\n"])
        else:
            parts.append(_encode_leaf(value))
        while frames:
            frame = frames[-1]
            item = next(frame[0], _END)
            if item is not _END:
                break
            frames.pop()
            parts.append("\n" + "  " * len(frames) + frame[1])
        else:
            return "".join(parts)
        parts.append(frame[2] + "  " * len(frames))
        frame[2] = ",\n"
        if frame[1] == "}":
            key, value = item
            parts.append(_encode_leaf(key) + ": ")
        else:
            value = item


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockdet",
        description="Determinism checks and certificates for block regular expressions and automata.",
    )
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json", default="json")
    fmt.add_argument("--dot", dest="fmt", action="store_const", const="dot")
    fmt.add_argument("--text", dest="fmt", action="store_const", const="text")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("parse", help="parse an expression and print its AST")
    p.add_argument("expression")

    p = sub.add_parser("glushkov", help="position automaton of an expression")
    p.add_argument("expression")

    for verb, doc in (
        ("trim", "drop useless states"),
        ("std", "standardize (single never-re-entered initial state)"),
        ("expand", "expand block labels into letter chains"),
        ("det", "determinize (width-1 input)"),
        ("min", "minimize a deterministic automaton"),
    ):
        p = sub.add_parser(verb, help=doc)
        p.add_argument("input")

    p = sub.add_parser("eliminate", help="eliminate one or more states")
    p.add_argument("input")
    p.add_argument("-q", "--state", action="append", required=True, dest="states")

    p = sub.add_parser("equiv", help="language equivalence of two inputs")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("check", help="determinism properties of an expression or automaton")
    p.add_argument(
        "property", choices=["one-unambiguous", "block", "lookahead", "min-lookahead"]
    )
    p.add_argument("input")
    p.add_argument("-k", type=int, default=None)

    p = sub.add_parser("bkw", help="run the BKW test (expressions go via their minimal DFA)")
    p.add_argument("input")

    p = sub.add_parser("certify", help="certificate that the language is k-block deterministic")
    p.add_argument("input")
    p.add_argument("-k", type=int, required=True)

    p = sub.add_parser("chi", help="letter expansion of a block expression")
    p.add_argument("expression")

    p = sub.add_parser("enumerate", help="accepted words up to a length bound")
    p.add_argument("input")
    p.add_argument("-n", "--maxlen", type=int, required=True)

    p = sub.add_parser("witness", help="build a member of one of the witness families")
    p.add_argument("family", choices=wt.FAMILIES)
    p.add_argument("-k", "--parameter", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-param", type=int, default=wt.DEFAULT_PARAMETER_CAP)

    return parser


def _automaton_out(a: au.BlockAutomaton, fmt: str) -> int:
    _emit(au.to_json(a), fmt, a=a)
    return 0


def _run(args) -> int:
    fmt = args.fmt
    if args.verb == "parse":
        ast = sx.parse(args.expression)
        _emit(sx.ast_to_json(ast), fmt, text=sx.to_text(ast))
        return 0

    if args.verb == "glushkov":
        ast = sx.parse(args.expression)
        g = _glushkov(ast)
        _emit(_glushkov_to_json(g), fmt, a=g.automaton)
        return 0

    if args.verb in ("trim", "std", "expand", "det", "min"):
        a = _as_automaton(_read_input(args.input))
        op = {
            "trim": au.trim,
            "std": au.standardize,
            "expand": au.expand_blocks,
            "det": au.determinize,
            "min": au.minimize,
        }[args.verb]
        return _automaton_out(op(a), fmt)

    if args.verb == "eliminate":
        a = _as_automaton(_read_input(args.input))
        if len(args.states) == 1:
            return _automaton_out(tf.eliminate(a, args.states[0]), fmt)
        return _automaton_out(tf.eliminate_set(a, args.states), fmt)

    if args.verb == "equiv":
        left = _as_automaton(_read_input(args.left))
        right = _as_automaton(_read_input(args.right))
        word = au.distinguishing_word(left, right)
        if word is None:
            _emit({"equivalent": True}, fmt, text="equivalent: True")
            return 0
        _emit(
            {"equivalent": False, "counterexample": word},
            fmt,
            text=f"equivalent: False\ncounterexample: {_encode_leaf(word)}",
        )
        return 1

    if args.verb == "check":
        return _run_check(args, fmt)

    if args.verb == "bkw":
        value = _read_input(args.input)
        a = bk.minimal_dfa(value) if isinstance(value, sx.RegexAst) else value
        trace = bk.bkw_test(a)
        # Build only the output `fmt` prints; `--dot` has neither and is refused.
        payload = bk.bkw_to_json(trace) if fmt == "json" else None
        text = bk.render_trace(trace) if fmt == "text" else None
        _emit(payload, fmt, text=text)
        return 0 if trace.verdict else 1

    if args.verb == "certify":
        a = _as_automaton(_read_input(args.input))
        verdict = bk.certify_k_block_language(a, args.k)
        _emit({"k": args.k, "certified": verdict}, fmt, text=f"certified at k={args.k}: {verdict}")
        return 0 if verdict else 1

    if args.verb == "chi":
        ast = sx.parse(args.expression)
        transformed = tf.chi(sx.mark(ast))
        plain = sx.drop(transformed)
        payload = {
            "omega": sx.to_text(transformed.ast),
            "plain": sx.to_text(plain),
            "plain_ast": sx.ast_to_json(plain),
        }
        _emit(payload, fmt, text=sx.to_text(transformed.ast))
        return 0

    if args.verb == "enumerate":
        a = _as_automaton(_read_input(args.input))
        words = au.enumerate_words(a, args.maxlen)
        _emit({"maxlen": args.maxlen, "words": words}, fmt, text="\n".join(words))
        return 0

    if args.verb == "witness":
        return _run_witness(args, fmt)

    raise CliError(f"unknown verb {args.verb!r}")


def _run_check(args, fmt: str) -> int:
    value = _read_input(args.input)
    needs_k = args.property in ("block", "lookahead")
    if needs_k and args.k is None:
        raise CliError(f"check {args.property} needs -k")
    if args.property == "one-unambiguous":
        verdict = bk.is_one_unambiguous(value)
        _emit({"one_unambiguous": verdict}, fmt, text=f"one-unambiguous: {verdict}")
        return 0 if verdict else 1

    if isinstance(value, sx.RegexAst):
        a = _glushkov(value).automaton
    else:
        a = value
    if args.property == "block":
        result = dt.is_k_block_deterministic(a, args.k)
        report = dt.DeterminismReport(au.is_deterministic(a), k_block=result)
        _emit(dt.report_to_json(report), fmt, text=f"{args.k}-block deterministic: {result.verdict}")
        return 0 if result.verdict else 1
    if args.property == "lookahead":
        result = dt.is_k_lookahead_deterministic(a, args.k)
        report = dt.DeterminismReport(au.is_deterministic(a), k_lookahead=result)
        _emit(
            dt.report_to_json(report), fmt, text=f"{args.k}-lookahead deterministic: {result.verdict}"
        )
        return 0 if result.verdict else 1
    least = dt.min_lookahead(a)
    payload = dt.report_to_json(dt.DeterminismReport(au.is_deterministic(a), min_lookahead=least))
    if least is None:
        payload["min_lookahead"] = "none"
    _emit(payload, fmt, text=f"min lookahead: {payload['min_lookahead']}")
    return 0 if least is not None else 1


def _run_witness(args, fmt: str) -> int:
    spec = wt.WitnessSpec(args.family, args.parameter)
    value = wt.build(spec)
    if args.verify:
        report = wt.verify(spec, parameter_cap=args.max_param)
        payload = {
            "family": spec.family,
            "parameter": spec.parameter,
            "claims": [{"name": c.name, "ok": c.ok} for c in report.claims],
            "passed": report.passed,
        }
        if isinstance(value, au.BlockAutomaton):
            payload["automaton"] = au.to_json(value)
        else:
            payload["expression"] = sx.to_text(value)
        lines = [f"{'ok  ' if c.ok else 'FAIL'} {c.name}" for c in report.claims]
        _emit(payload, fmt, text="\n".join(lines))
        return 0 if report.passed else 1
    if isinstance(value, au.BlockAutomaton):
        return _automaton_out(value, fmt)
    # Expression families print bare text so the output can be passed
    # straight back in as an inline expression argument.
    if fmt == "dot":
        raise CliError("--dot applies only to commands that output an automaton")
    print(sx.to_text(value))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"blockdet: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # Exit 1 would read as "the property fails": report a crash as an error.
        print(f"blockdet: input too large to process ({type(exc).__name__})", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
