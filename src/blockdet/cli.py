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
    """Print the automaton `a` under `--dot`, `text` under `--text` or when
    there is no payload, and `payload` as JSON otherwise.  `main` refuses
    `--dot` before any work for a command that prints no automaton."""
    if fmt == "dot" and a is not None:
        print(au.to_dot(a))
    elif text is not None and (fmt == "text" or payload is None):
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


def _run_parse(args) -> int:
    ast = sx.parse(args.expression)
    _emit(sx.ast_to_json(ast), args.fmt, text=sx.to_text(ast))
    return 0


def _run_glushkov(args) -> int:
    g = _glushkov(sx.parse(args.expression))
    _emit(_glushkov_to_json(g), args.fmt, a=g.automaton)
    return 0


def _automaton_out(a: au.BlockAutomaton, fmt: str) -> int:
    _emit(au.to_json(a), fmt, a=a)
    return 0


def _run_op(args) -> int:
    return _automaton_out(args.op(_as_automaton(_read_input(args.input))), args.fmt)


def _run_eliminate(args) -> int:
    a = _as_automaton(_read_input(args.input))
    return _automaton_out(tf.eliminate_set(a, args.states), args.fmt)


def _run_equiv(args) -> int:
    left = _as_automaton(_read_input(args.left))
    right = _as_automaton(_read_input(args.right))
    word = au.distinguishing_word(left, right)
    if word is None:
        _emit({"equivalent": True}, args.fmt, text="equivalent: True")
        return 0
    _emit(
        {"equivalent": False, "counterexample": word},
        args.fmt,
        text=f"equivalent: False\ncounterexample: {_encode_leaf(word)}",
    )
    return 1


def _run_check(args) -> int:
    value = _read_input(args.input)
    prop = args.property
    if prop in ("block", "lookahead") and args.k is None:
        raise CliError(f"check {prop} needs -k")
    if prop == "one-unambiguous":
        verdict = bk.is_one_unambiguous(value)
        _emit({"one_unambiguous": verdict}, args.fmt, text=f"one-unambiguous: {verdict}")
        return 0 if verdict else 1
    a = _as_automaton(value)
    # The report names every check; the ones not run stay null.
    report = dict.fromkeys(("deterministic", "k_block", "k_lookahead", "min_lookahead"))
    if prop == "min-lookahead":
        least = dt.min_lookahead(a)
        verdict = least is not None
        report["min_lookahead"] = least
        text = f"min lookahead: {least if verdict else 'none'}"
    else:
        check = dt.is_k_block_deterministic if prop == "block" else dt.is_k_lookahead_deterministic
        result = check(a, args.k)
        verdict = result.verdict
        pairs = [[au.transition_to_json(t) for t in pair] for pair in result.violations]
        report["k_" + prop] = {"k": result.k, "verdict": verdict, "violations": pairs}
        text = f"{args.k}-{prop} deterministic: {verdict}"
    report["deterministic"] = au.is_deterministic(a)
    _emit(report, args.fmt, text=text)
    return 0 if verdict else 1


def _run_bkw(args) -> int:
    value = _read_input(args.input)
    a = bk.minimal_dfa(value) if isinstance(value, sx.RegexAst) else value
    trace = bk.bkw_test(a)
    # Build only the output `fmt` prints.
    payload = bk.bkw_to_json(trace) if args.fmt == "json" else None
    text = bk.render_trace(trace) if args.fmt == "text" else None
    _emit(payload, args.fmt, text=text)
    return 0 if trace.verdict else 1


def _run_certify(args) -> int:
    a = _as_automaton(_read_input(args.input))
    verdict = bk.certify_k_block_language(a, args.k)
    text = f"certified at k={args.k}: {verdict}"
    _emit({"k": args.k, "certified": verdict}, args.fmt, text=text)
    return 0 if verdict else 1


def _run_chi(args) -> int:
    transformed = tf.chi(sx.mark(sx.parse(args.expression)))
    plain = sx.drop(transformed)
    omega = sx.to_text(transformed.ast)
    payload = {"omega": omega, "plain": sx.to_text(plain), "plain_ast": sx.ast_to_json(plain)}
    _emit(payload, args.fmt, text=omega)
    return 0


def _run_enumerate(args) -> int:
    words = au.enumerate_words(_as_automaton(_read_input(args.input)), args.maxlen)
    _emit({"maxlen": args.maxlen, "words": words}, args.fmt, text="\n".join(words))
    return 0


def _run_witness(args) -> int:
    spec = wt.WitnessSpec(args.family, args.parameter)
    # `verify` refuses a parameter past its cap, so refuse before building.
    report = wt.verify(spec, parameter_cap=args.max_param) if args.verify else None
    value = wt.build(spec)
    if report is not None:
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
        _emit(payload, args.fmt, text="\n".join(lines))
        return 0 if report.passed else 1
    if isinstance(value, au.BlockAutomaton):
        return _automaton_out(value, args.fmt)
    # Expression families print bare text, whatever the format, so the
    # output can be passed straight back in as an inline expression argument.
    _emit(None, args.fmt, text=sx.to_text(value))
    return 0


# The verbs that read one automaton (or expression) and print the automaton
# an operation makes of it.
_OPS = {
    "trim": (au.trim, "drop useless states"),
    "std": (au.standardize, "standardize (single never-re-entered initial state)"),
    "expand": (au.expand_blocks, "expand block labels into letter chains"),
    "det": (au.determinize, "determinize (width-1 input)"),
    "min": (au.minimize, "minimize a deterministic automaton"),
}


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

    def verb(
        name: str, run, doc: str, *positional: str, automaton=lambda args: True
    ) -> argparse.ArgumentParser:
        """Declare a verb with its handler, which `main` calls as
        `args.run(args)`, and `automaton`, which tells from the parsed
        arguments whether the verb prints an automaton: `main` refuses
        `--dot` before any work when it does not."""
        p = sub.add_parser(name, help=doc)
        p.set_defaults(run=run, automaton=automaton)
        for arg in positional:
            p.add_argument(arg)
        return p

    def never(args) -> bool:
        return False

    verb("parse", _run_parse, "parse an expression and print its AST", "expression", automaton=never)
    verb("glushkov", _run_glushkov, "position automaton of an expression", "expression")
    for name, (op, doc) in _OPS.items():
        verb(name, _run_op, doc, "input").set_defaults(op=op)

    p = verb("eliminate", _run_eliminate, "eliminate one or more states", "input")
    p.add_argument("-q", "--state", action="append", required=True, dest="states")

    verb("equiv", _run_equiv, "language equivalence of two inputs", "left", "right", automaton=never)

    p = verb("check", _run_check, "determinism properties of an expression or automaton",
             automaton=never)
    p.add_argument("property", choices=["one-unambiguous", "block", "lookahead", "min-lookahead"])
    p.add_argument("input")
    p.add_argument("-k", type=int, default=None)

    verb("bkw", _run_bkw, "run the BKW test (expressions go via their minimal DFA)", "input",
         automaton=never)

    p = verb("certify", _run_certify, "certificate that the language is k-block deterministic",
             automaton=never)
    p.add_argument("input")
    p.add_argument("-k", type=int, required=True)

    verb("chi", _run_chi, "letter expansion of a block expression", "expression", automaton=never)

    p = verb("enumerate", _run_enumerate, "accepted words up to a length bound", "input",
             automaton=never)
    p.add_argument("-n", "--maxlen", type=int, required=True)

    # A claim report, or an expression family's text: never an automaton.
    p = verb(
        "witness",
        _run_witness,
        "build a member of one of the witness families",
        automaton=lambda args: not (args.verify or args.family.endswith("_expr")),
    )
    p.add_argument("family", choices=wt.FAMILIES)
    p.add_argument("-k", "--parameter", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-param", type=int, default=wt.DEFAULT_PARAMETER_CAP)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.fmt == "dot" and not args.automaton(args):
            raise CliError("--dot applies only to commands that output an automaton")
        return args.run(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"blockdet: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError, OverflowError) as exc:
        # Exit 1 would read as "the property fails": report a crash as an error.
        print(f"blockdet: input too large to process ({type(exc).__name__})", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
