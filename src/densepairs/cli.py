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
from typing import Callable, NamedTuple

from . import formulas
from .coding import code_function, code_unary_set, set_code_json
from .decomposition import decompose, generic_type_contains, is_small
from .errors import ArityError, InputError, InternalError, PreconditionError
from .formulas import Atom, TheoryMode
from .measure import measure
from .model import Model
from .parser import parse, render
from .qe import decide_sentence, qe, split_atom
from .selfcheck import selfcheck
from .terms import Sort, Variable

# the sorts of a command's free variables in index order, and their name in an arity error
_HOME = ((Sort.HOME,), "exactly one free home variable")
_QUOTIENT = ((Sort.QUOTIENT,), "exactly one free quotient variable")
_GRAPH = ((Sort.HOME, Sort.HOME), "two free home variables (argument, value)")


def _truth(value: bool):
    return "true" if value else "false", {"result": value}


def _as_json(data):
    return json.dumps(data, sort_keys=True), data


def _qe(args, f, free, mode):
    text = render(qe(f, mode))
    return text, {"formula": text}


def _decompose(args, f, free, mode):
    d = decompose(f, *free)
    return str(d), d.to_json()


def _measure(args, f, free, mode):
    value = measure(f, *free).value
    exact, decimal = str(value), value.decimal_str(args.precision)
    text = exact if value.in_q() else f"{exact}\n~ {decimal}"
    return text, {"exact": value.to_json(), "text": exact, "decimal": decimal}


def _split(args, f, free, mode):
    if not isinstance(f, Atom):
        raise ArityError("split expects a single atom")
    parts = split_atom(f)
    data = {"home": parts.home, "quotient": parts.quotient}
    data = {side: None if g is None else render(g) for side, g in data.items()}
    return "\n".join(f"{side}: {g}" for side, g in data.items() if g is not None), data


def _oracle_check(args, f, free, mode):
    report = selfcheck(args.seed, args.count, mode, Model(args.model_dim))
    text = (
        f"instances: {args.count}\nchecks: {report['checks']}\n"
        f"agreements: {report['agreements']}\ndisagreements: {report['disagreements']}"
    )
    return text, report


class _Command(NamedTuple):
    help: str
    free: tuple[tuple[Sort, ...], str] | None  # None: no arity check
    act: Callable  # (args, admitted formula, its free variables, mode) -> (text, JSON)


_COMMANDS = {
    "qe": _Command("eliminate quantifiers and print the result", None, _qe),
    "decide": _Command(
        "decide a sentence and print true/false",
        None,
        lambda args, f, free, mode: _truth(decide_sentence(f, mode)),
    ),
    "decompose": _Command("decompose a unary definable set", _HOME, _decompose),
    "measure": _Command("evaluate the canonical measure of a unary set", _HOME, _measure),
    "small": _Command(
        "classify a unary definable set as small or large",
        _HOME,
        lambda args, f, free, mode: _truth(is_small(decompose(f, *free))),
    ),
    "generic": _Command(
        "test membership of a unary quotient formula in the generic type",
        _QUOTIENT,
        lambda args, f, free, mode: _truth(generic_type_contains(f, *free)),
    ),
    "code-set": _Command(
        "print the canonical code of a unary definable set",
        _HOME,
        lambda args, f, free, mode: _as_json(set_code_json(code_unary_set(f, *free))),
    ),
    "code-fn": _Command(
        "print the canonical code of a definable function graph",
        _GRAPH,  # the lower index is the argument
        lambda args, f, free, mode: _as_json(code_function(f, *free).to_json()),
    ),
    "split": _Command("split an atom into pure home/quotient parts", None, _split),
    "oracle-check": _Command(
        "randomized agreement check between the eliminator and the oracles", None, _oracle_check
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="densepairs",
        description="decision procedures for dense pairs of ordered rational vector spaces",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--theory", choices=[m.value for m in TheoryMode], default="povs", help="theory mode")
        p.add_argument("--model-dim", type=int, default=3, help="reference model dimension")
        p.add_argument("--format", choices=["text", "json"], default="text")
        if name == "oracle-check":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--count", type=int, default=100)
        else:
            p.add_argument("--verbose", action="store_true")
            p.add_argument("formula", nargs="?", help="formula text (default: stdin)")
        if name == "measure":
            p.add_argument("--precision", type=int, default=12, help="decimal digits")
    return top


def _read_formula(args, want, mode: TheoryMode):
    """The admitted formula and its free variables in index order, from one
    scan that checks its constants against the model and, after the
    `--verbose` echo, its free variables against `want`."""
    model = Model(args.model_dim)
    f = parse(sys.stdin.read() if args.formula is None else args.formula, mode)
    nodes, free, _ = formulas._scan(f)
    for g in nodes:
        if isinstance(g, Atom) and not model.contains(c := g.payload.constant):
            outside = min(c.radicands().difference(model.radicands))
            allowed = ", ".join(f"r{k}" for k in model.primes)
            raise InputError(
                f"r{outside} is outside the dimension-{model.dim} model, "
                f"whose radicands are {allowed}"
            )
    if args.verbose:
        print(f"normalized: {render(f)}", file=sys.stderr)
    free = sorted(free, key=Variable.sort_key)
    if want is not None and tuple(v.sort for v in free) != want[0]:
        names = ", ".join(v.name for v in free) or "none"
        raise ArityError(f"expected {want[1]}, found: {names}")
    return f, free


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        mode = TheoryMode(args.theory)
        f, free = _read_formula(args, command.free, mode) if "formula" in args else (None, [])
        text, data = command.act(args, f, free, mode)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error (please report): {exc}", file=sys.stderr)
        return 4
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2
    print(json.dumps(data, sort_keys=True) if args.format == "json" else text)
    return 4 if args.command == "oracle-check" and data["disagreements"] else 0


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
