"""Command-line front end.

Subcommands: ``reduce`` (emit the reduced prefix, transform rows, and index
sets), ``solve`` (assemble a general solution prefix), ``fundamental`` (emit
the fundamental sequences), ``hess`` (evaluate the determinant closed form,
optionally cross-checked against the elimination path), and ``verify`` (run
the internal consistency checks and report pass/fail per check).  Each
subcommand accepts only the flags it reads (``_COMMANDS``); any other flag
is an argparse usage error.

Exit codes: 0 ok, 1 verification failure, 2 spec or usage error,
3 evaluation error, 4 inconsistent system, 141 (128 + SIGPIPE) stdout closed
before the output was written, as by ``| head``.  Output is printed as it is
rendered: ``reduce`` JSON and csv a row at a time, a transform row once final;
``--format pretty`` replays ``Q`` twice: for its column widths, then to print.

All rationals are printed as ``p`` or ``p/q``.  The JSON output of ``reduce``
uses the explicit-matrix key ``rows`` for the reduced prefix, so it can be
fed back in as an equation spec when every entry is within the interpreter's
4,300-digit limit on parsing an integer and every column within
``MAX_COLUMN``; a longer entry or a farther column prints in full but is
rejected on reading (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from . import checks
from . import hessenberg as hb
from . import solver
from .elimination import EliminationState, run
from .rows import FiniteRow, format_ratio, format_scalar, parse_scalar
from .sources import (EquationSpec, EvalError, RowSource, SpecError,
                      build_family, load_equation)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_SPEC = 2
EXIT_EVAL = 3
EXIT_INCONSISTENT = 4
EXIT_PIPE = 141


_INTEGER = re.compile(r"[+-]?[0-9]+")   # ASCII digits: int() takes other scripts' too
_Lines = Callable[[], Iterable[str]]   # a renderer of one output format


def _parse_free(text: Optional[str]) -> Dict[int, Fraction]:
    if text is None:
        return {}
    out: Dict[int, Fraction] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "=" not in chunk:
            raise SpecError(f"--free expects i=p/q pairs, got {chunk!r}")
        key, _, value = chunk.partition("=")
        if not _INTEGER.fullmatch(key.strip()):
            raise SpecError(f"--free index must be an integer, got {key!r}")
        idx = int(key)
        if idx in out:
            raise SpecError(f"--free assigns index {idx} twice")
        out[idx] = parse_scalar(value)
    return out


def _flag_int(text: str) -> int:
    """The value of an integer flag, by the rule of a ``--free`` index."""
    if not _INTEGER.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"expected an integer of ASCII digits, got {text!r}")
    return int(text)


def _forcing(args, eq: EquationSpec) -> Optional[List[Fraction]]:
    """``--g`` if given, else the spec's ``g``; None for no forcing."""
    if args.g is not None:
        return [parse_scalar(chunk) for chunk in args.g.split(",")]
    return None if eq.g is None else list(eq.g)


def _load_source(args) -> EquationSpec:
    if args.spec and args.family:
        raise SpecError("give either --spec or --family, not both")
    if args.spec:
        return load_equation(args.spec)
    if args.family:
        return EquationSpec(build_family({"family": args.family}))
    raise SpecError("one of --spec or --family is required")


def _mode(state: EliminationState) -> str:
    """The printed engine mode: a certified run never cross-clears."""
    return "gauss_only" if state.certified else "gauss_jordan"


def _first_index(args, source: RowSource) -> int:
    if args.first_index is not None:
        return args.first_index
    if source.regular_order_index is not None:
        return -source.regular_order_index
    return 0


# The writers below produce the value of a top-level key byte for byte as
# json.dumps(..., indent=2) does, straight from the values: the JSON
# documents are built without a payload of dicts for the generic encoder.
# Each formats a row or a term list in one comprehension (``str`` of a
# ``Fraction`` is ``p`` or ``p/q``, as format_ratio writes it); a value past
# the int-str digit limit raises ValueError there, and that row or list is
# formatted again through format_ratio.

def _ints_json(values: Sequence[int]) -> str:
    if not values:
        return "[]"
    return "[\n" + ",\n".join(f"    {v}" for v in values) + "\n  ]"


_PAIR_SEP = '"\n      ],\n      [\n        '


def _rows_json(key: str, rows: Iterable[FiniteRow], count: int) -> Iterator[str]:
    """The line of ``key`` and then its ``count`` rows (one at least) as
    lists of ``[column, "p/q"]`` pairs, written straight from the integer
    pairs a row at a time.  Each pair is written from its column to the end
    of its value, and ``_PAIR_SEP`` joins them."""
    yield f'  "{key}": ['
    for i, row in enumerate(rows, 1):
        comma = "," if i < count else ""
        try:
            pairs = [f'{c},\n        "{n}' if d == 1 else f'{c},\n        "{n}/{d}'
                     for c, n, d in row.int_items()]
        except ValueError:
            pairs = [f'{c},\n        "{format_ratio(n, d)}' for c, n, d in row.int_items()]
        yield (f'    [\n      [\n        {_PAIR_SEP.join(pairs)}"\n      ]\n    ]{comma}'
               if pairs else f"    []{comma}")
    yield "  ],"


def _terms_json(values: Sequence[Fraction], first: int, indent: int) -> str:
    """Terms as ``{"index": i + first, "value": "p/q"}`` objects, the value
    of a key written ``indent`` spaces in."""
    if not values:
        return "[]"
    pad = " " * indent
    head = f'{pad}  {{\n{pad}    "index": '
    mid = f',\n{pad}    "value": "'
    tail = f'"\n{pad}  }}'
    try:
        items = [f"{head}{i}{mid}{v!s}{tail}" for i, v in enumerate(values, first)]
    except ValueError:
        items = [f"{head}{i}{mid}{format_scalar(v)}{tail}" for i, v in enumerate(values, first)]
    return "[\n" + ",\n".join(items) + f"\n{pad}]"


def _sequences_json(sequences: Dict[int, Sequence[Fraction]], first: int) -> str:
    """Fundamental sequences as ``{"s": s + first, "terms": [...]}`` objects."""
    if not sequences:
        return "[]"
    items = ",\n".join(
        f'    {{\n      "s": {s + first},\n'
        f'      "terms": {_terms_json(seq, first, 6)}\n    }}'
        for s, seq in sequences.items())
    return f"[\n{items}\n  ]"


def _reduce_json(state: EliminationState, horizon: int) -> Iterator[str]:
    """The ``reduce`` JSON document, equal to ``json.dumps`` of the payload
    with ``indent=2``, written a row at a time without a per-entry ``Fraction``
    or the generic encoder; each transform row is written once it is final."""
    yield from ("{",
                '  "command": "reduce",',
                f'  "horizon": {horizon},',
                f'  "mode": "{_mode(state)}",',
                f'  "certified": {json.dumps(state.certified)},')
    yield from _rows_json("rows", state.h_rows, state.k)
    yield from _rows_json("q_rows", state.transform_rows(), state.k)
    yield from (f'  "j_set": {_ints_json(state.j_set)},',
                f'  "w_set": {_ints_json(state.w_set)},',
                f'  "mu": {_ints_json(state.mu)},',
                f'  "stable_since": {_ints_json(state.stable_since())}',
                "}")


def _dense_cells(rows: Iterable[FiniteRow], width: int) -> Iterator[List[str]]:
    """Each of the rows as printed cells, padded with zeros to ``width``; one
    row at a time, so a dense format holds one row's cells."""
    for row in rows:
        cells = ["0"] * width
        for col, num, den in row.int_items():
            cells[col] = format_ratio(num, den)
        yield cells


def _rows_csv(rows: Sequence[FiniteRow]) -> Iterator[str]:
    width = max(row.length + 1 for row in rows)
    return (",".join(line) for line in _dense_cells(rows, width))


def _seq_csv(values: Sequence[Fraction]) -> str:
    try:
        return ",".join(map(str, values))
    except ValueError:
        return ",".join(map(format_scalar, values))


def _emit(args, json_lines: _Lines, csv_lines: _Lines, pretty_lines: _Lines) -> None:
    """Print the output in the requested format; only that one is rendered.
    Each renderer yields its text in pieces, each printed with a newline as
    it comes, so a matrix is written a row at a time."""
    render = {"json": json_lines, "csv": csv_lines, "pretty": pretty_lines}
    for piece in render[args.format]():
        print(piece)


def _pretty_rows(rows: Callable[[], Iterable[FiniteRow]]) -> Iterator[str]:
    """Dense rows (one at least) right-aligned per column.  ``rows()`` is read
    twice: first for the widths, from the stored entries (a zero cell is one
    character), then to print, so the rows are never held at once."""
    col_w: List[int] = []
    for row in rows():
        col_w.extend([1] * (row.length + 1 - len(col_w)))
        for col, num, den in row.int_items():
            col_w[col] = max(col_w[col], len(format_ratio(num, den)))
    return ("  ".join(cell.rjust(w) for cell, w in zip(line, col_w))
            for line in _dense_cells(rows(), len(col_w)))


def _reduce_pretty(state: EliminationState) -> Iterator[str]:
    """The ``reduce`` pretty text, a line at a time; ``Q`` is replayed twice."""
    yield f"reduced prefix (mode {_mode(state)}):"
    yield from _pretty_rows(lambda: state.h_rows)
    yield "transform rows:"
    yield from _pretty_rows(state.transform_rows)
    yield f"j_set={state.j_set} w_set={state.w_set} mu={state.mu}"
    yield f"stable_since={state.stable_since()}"


def _emit_terms(args, key: str, key_value: int, values: Sequence[Fraction],
                first: int, match: Optional[bool] = None) -> None:
    """Print terms y_first.. for ``solve`` and ``hess``, after ``key`` in
    JSON, and then the elimination cross-check's verdict if there is one."""
    tail = "" if match is None else "\n" + ("MATCH" if match else "MISMATCH")
    last = "" if match is None else f',\n  "elimination_match": {json.dumps(match)}'
    _emit(args,
          lambda: ("{",
                   f'  "command": "{args.command}",',
                   f'  "{key}": {key_value},',
                   f'  "terms": {_terms_json(values, first, 2)}{last}',
                   "}"),
          lambda: [_seq_csv(values) + tail],
          lambda: ["\n".join(f"y_{i + first} = {format_scalar(v)}"
                             for i, v in enumerate(values)) + tail])


def cmd_reduce(args) -> int:
    eq = _load_source(args)
    state = run(eq.source, args.horizon)
    _emit(args,
          lambda: _reduce_json(state, args.horizon),
          lambda: _rows_csv(state.h_rows),
          lambda: _reduce_pretty(state))
    return EXIT_OK


def cmd_solve(args) -> int:
    eq = _load_source(args)
    free = _parse_free(args.free)
    g = _forcing(args, eq)
    state = run(eq.source, args.horizon)
    values = solver.general_solution(state, g, free, args.terms)
    first = _first_index(args, eq.source)
    _emit_terms(args, "first_index", first, values, first)
    return EXIT_OK


def cmd_fundamental(args) -> int:
    eq = _load_source(args)
    state = run(eq.source, args.horizon)
    fund = solver.fundamental_set(state, args.horizon, args.terms)
    first = _first_index(args, eq.source)
    _emit(args,
          lambda: ("{",
                   '  "command": "fundamental",',
                   f'  "basis_kind": {json.dumps(fund.basis_kind)},',
                   f'  "first_index": {first},',
                   f'  "sequences": {_sequences_json(fund.sequences, first)}',
                   "}"),
          lambda: ["\n".join(_seq_csv(seq) for seq in fund.sequences.values())],
          lambda: [f"basis_kind: {fund.basis_kind}\n" + "\n".join(
              f"xi({s + first}): " + _seq_csv(seq) for s, seq in fund.sequences.items()
          )])
    return EXIT_OK


def cmd_hess(args) -> int:
    eq = _load_source(args)
    source = eq.source
    if source.regular_order_index is None:
        raise SpecError("hess needs a regular-order source "
                        "(first_order, second_order, n_order, or ascending)")
    order = source.regular_order_index
    g = _forcing(args, eq)
    free = _parse_free(args.free)
    for key in free:
        if not 0 <= key < order:
            raise SpecError(f"initial values live at indices 0..{order - 1}, got {key}" if order
                            else f"an equation of order 0 takes no initial values, got {key}")
    init = [free.get(i, Fraction(0)) for i in range(order)]
    if args.verify_against_elimination:
        # both paths read rows 0..terms-1: each is fetched once, the first
        # time the closed form reads it, so its errors still fire in row order
        source = replace(source, row_fn=functools.cache(source.row_fn))
    values = hb.general_prefix(source, g, init, args.terms)

    match = None
    if args.verify_against_elimination:
        match = checks.closed_form_matches(run(source, args.terms), g, init, values)
    _emit_terms(args, "index", order, values, 0, match)
    return EXIT_VERIFY if match is False else EXIT_OK


def cmd_verify(args) -> int:
    eq = _load_source(args)
    rows = [eq.source.row_at(n) for n in range(args.horizon)]   # fetched once for all
    eq = replace(eq, source=replace(eq.source, row_fn=rows.__getitem__))
    results = checks.run_checks(eq, run(eq.source, args.horizon), args.seed)
    print(f"seed {args.seed}")
    for name, passed in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    return EXIT_OK if all(passed for _, passed in results) else EXIT_VERIFY


_FLAGS = {
    "--spec": {"help": "equation-spec or explicit-matrix JSON file"},
    "--family": {"help": "builtin family name (e.g. example2, example3)"},
    "--horizon": {"type": _flag_int, "default": None,
                  "help": "number of rows to consume (default: max(terms, 1); "
                          "10 for reduce and verify)"},
    "--terms": {"type": _flag_int, "default": 10, "help": "number of solution terms to emit"},
    "--free": {"help": "free constants, e.g. 0=1,4=-2/3; a value that "
                       "starts with - needs the = form, e.g. --free=-1=2"},
    "--g": {"help": "forcing prefix, e.g. 1,0,1/2; a value that starts "
                    "with - needs the = form, e.g. --g=-1,0,0"},
    "--format": {"choices": ("json", "csv", "pretty"), "default": "json"},
    "--first-index": {"type": _flag_int, "default": None,
                      "help": "display offset (default 0, or -N for regular order)"},
    "--seed": {"type": _flag_int, "default": 0, "help": "seed for random checks"},
    "--verify-against-elimination": {"action": "store_true"},
}

# (name, handler, help, the flags it reads, defaults that override the flags')
_COMMANDS = (
    ("reduce", cmd_reduce, "emit the reduced and transform prefixes",
     "--spec --family --horizon --format", {"horizon": 10}),
    ("solve", cmd_solve, "assemble a general solution prefix",
     "--spec --family --horizon --terms --free --g --format --first-index", {}),
    ("fundamental", cmd_fundamental, "emit the fundamental sequences",
     "--spec --family --horizon --terms --format --first-index", {}),
    ("hess", cmd_hess, "determinant closed form for regular order",
     "--spec --family --terms --free --g --format --verify-against-elimination", {}),
    ("verify", cmd_verify, "run the internal consistency checks",
     "--spec --family --horizon --seed", {"horizon": 10}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rowfinite",
        description="Exact rightmost-pivot reduction and solvers for "
                    "row-finite linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags, defaults in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler, **defaults)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "horizon", 1) is None:   # solve, fundamental: from --terms
        args.horizon = max(args.terms, 1)
    if getattr(args, "horizon", 1) < 1 or getattr(args, "terms", 1) < 1:
        print("error: --horizon and --terms must be at least 1", file=sys.stderr)
        return EXIT_SPEC
    try:
        code = args.handler(args)
        sys.stdout.flush()   # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the flush at exit would fail again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except solver.InconsistentSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
