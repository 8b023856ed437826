"""Batch command-line front end.

One command per invocation, formula on the command line or standard
input, text or JSON output.  Exit codes: 0 success, 1 the reader closed
the output pipe, 2 parse/sort/mode error or input nested too deeply,
3 precondition violation, 4 breached internal invariant (which includes
any disagreement found by the self-check harness).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coding import code_function, code_unary_set, set_code_json
from .decomposition import decompose, generic_type_contains, is_small
from .errors import (
    ArityError,
    InputError,
    InternalError,
    PreconditionError,
)
from .formulas import Atom, Formula, TheoryMode, all_atoms, free_variables
from .measure import measure
from .model import Model
from .parser import parse, render
from .qe import decide_sentence, qe, split_atom
from .selfcheck import selfcheck
from .terms import Sort, Variable

_MODES = {"ovs": TheoryMode.OVS, "povs": TheoryMode.POVS, "povs-prec": TheoryMode.POVS_PREC}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="densepairs",
        description="decision procedures for dense pairs of ordered rational vector spaces",
    )
    sub = top.add_subparsers(dest="command", required=True)
    commands = {
        "qe": "eliminate quantifiers and print the result",
        "decide": "decide a sentence and print true/false",
        "decompose": "decompose a unary definable set",
        "measure": "evaluate the canonical measure of a unary set",
        "small": "classify a unary definable set as small or large",
        "generic": "test membership of a unary quotient formula in the generic type",
        "code-set": "print the canonical code of a unary definable set",
        "code-fn": "print the canonical code of a definable function graph",
        "split": "split an atom into pure home/quotient parts",
        "oracle-check": "randomized agreement check between the eliminator and the oracles",
    }
    parsers = {}
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--theory", choices=sorted(_MODES), default="povs", help="theory mode"
        )
        p.add_argument("--model-dim", type=int, default=3, help="reference model dimension")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--verbose", action="store_true")
        if name == "oracle-check":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--count", type=int, default=100)
        else:
            p.add_argument("formula", nargs="?", help="formula text (default: stdin)")
        if name == "measure":
            p.add_argument("--precision", type=int, default=12, help="decimal digits")
        parsers[name] = p
    return top


def _read_formula(args, mode: TheoryMode, model: Model) -> Formula:
    text = getattr(args, "formula", None)
    if text is None:
        text = sys.stdin.read()
    f = parse(text, mode)
    _check_constants(f, model)
    if args.verbose:
        print(f"normalized: {render(f)}", file=sys.stderr)
    return f


def _check_constants(f: Formula, model: Model) -> None:
    for atom in all_atoms(f):
        c = atom.payload.constant
        if not model.contains(c):
            raise InputError(
                f"constant {c} uses radicands outside the dimension-{model.dim} model"
            )


def _single_free_variable(f: Formula, sort: Sort) -> Variable:
    free = sorted(free_variables(f), key=lambda v: v.sort_key())
    if len(free) != 1 or free[0].sort is not sort:
        names = ", ".join(v.name for v in free) or "none"
        raise ArityError(f"expected exactly one free {sort.value} variable, found: {names}")
    return free[0]


def _emit(args, text_value: str, json_value) -> None:
    if args.format == "json":
        print(json.dumps(json_value, sort_keys=True))
    else:
        print(text_value)


def _cmd_qe(args, mode, model):
    f = _read_formula(args, mode, model)
    g = qe(f, mode)
    _emit(args, render(g), {"formula": render(g)})
    return 0


def _cmd_decide(args, mode, model):
    f = _read_formula(args, mode, model)
    value = decide_sentence(f, mode)
    _emit(args, "true" if value else "false", {"result": value})
    return 0


def _cmd_decompose(args, mode, model):
    f = _read_formula(args, mode, model)
    v = _single_free_variable(f, Sort.HOME)
    d = decompose(f, v)
    _emit(args, str(d), d.to_json())
    return 0


def _cmd_measure(args, mode, model):
    f = _read_formula(args, mode, model)
    v = _single_free_variable(f, Sort.HOME)
    mv = measure(f, v)
    exact = str(mv.value)
    decimal = mv.value.decimal_str(args.precision)
    text = exact if mv.value.in_q() else f"{exact}\n~ {decimal}"
    _emit(args, text, {"exact": mv.to_json(), "text": exact, "decimal": decimal})
    return 0


def _cmd_small(args, mode, model):
    f = _read_formula(args, mode, model)
    v = _single_free_variable(f, Sort.HOME)
    value = is_small(decompose(f, v))
    _emit(args, "true" if value else "false", {"result": value})
    return 0


def _cmd_generic(args, mode, model):
    f = _read_formula(args, mode, model)
    v = _single_free_variable(f, Sort.QUOTIENT)
    value = generic_type_contains(f, v)
    _emit(args, "true" if value else "false", {"result": value})
    return 0


def _cmd_code_set(args, mode, model):
    f = _read_formula(args, mode, model)
    v = _single_free_variable(f, Sort.HOME)
    code = code_unary_set(f, v)
    data = set_code_json(code)
    _emit(args, json.dumps(data, sort_keys=True), data)
    return 0


def _cmd_code_fn(args, mode, model):
    f = _read_formula(args, mode, model)
    free = sorted(free_variables(f), key=lambda v: v.sort_key())
    if len(free) != 2 or any(v.sort is not Sort.HOME for v in free):
        names = ", ".join(v.name for v in free) or "none"
        raise ArityError(f"expected two free home variables (argument, value), found: {names}")
    x, y = free  # lower index is the argument
    code = code_function(f, x, y)
    _emit(args, json.dumps(code.to_json(), sort_keys=True), code.to_json())
    return 0


def _cmd_split(args, mode, model):
    f = _read_formula(args, mode, model)
    if not isinstance(f, Atom):
        raise ArityError("split expects a single atom")
    parts = split_atom(f)
    home = None if parts.home is None else render(parts.home)
    quotient = None if parts.quotient is None else render(parts.quotient)
    text = "\n".join(
        f"{label}: {value}"
        for label, value in (("home", home), ("quotient", quotient))
        if value is not None
    )
    _emit(args, text, {"home": home, "quotient": quotient})
    return 0


def _cmd_oracle_check(args, mode, model):
    report = selfcheck(args.seed, args.count, mode, model)
    text = (
        f"instances: {args.count}\nchecks: {report['checks']}\n"
        f"agreements: {report['agreements']}\ndisagreements: {report['disagreements']}"
    )
    _emit(args, text, report)
    return 0 if report["disagreements"] == 0 else 4


_HANDLERS = {
    "qe": _cmd_qe,
    "decide": _cmd_decide,
    "decompose": _cmd_decompose,
    "measure": _cmd_measure,
    "small": _cmd_small,
    "generic": _cmd_generic,
    "code-set": _cmd_code_set,
    "code-fn": _cmd_code_fn,
    "split": _cmd_split,
    "oracle-check": _cmd_oracle_check,
}


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        mode = _MODES[args.theory]
        model = Model(args.model_dim)
        return _HANDLERS[args.command](args, mode, model)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error (please report): {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        # flush inside the try, so a closed pipe surfaces here and not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); point stdout at devnull so
        # the interpreter's own flush at shutdown cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
