"""Random invocations of every subcommand, with valid and junk flag values
on valid and malformed specs, end in a documented exit code (0-4) and
never in an uncaught exception.

``--horizon`` and ``--terms`` stay at 30 or less: a run costs in proportion
to the horizon it asks for, which is not a defect.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rowfinite import cli
from rowfinite.sources import MAX_COLUMN

SPEC = "<spec>"   # stands for the path of the drawn spec file

_JUNK = st.sampled_from(["", "x", "1.5", "-", "1/0", "2/-3", "0x10", " 3",
                         "1e3", "=", ",", "1,,2", "nan"])


def mostly(valid, junk):
    """Draw from ``valid`` nine times in ten, else from ``junk``: a case
    combines several draws, and most of them should get past the parser."""
    return st.sampled_from((valid,) * 9 + (junk,)).flatmap(lambda s: s)


_COUNTS = mostly(st.integers(1, 30).map(str), st.integers(-2, 0).map(str) | _JUNK)
_RATIONALS = st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9),
                       st.integers(1, 4)) | st.integers(-9, 9).map(str)

_FLAG_VALUES = {
    "--spec": mostly(st.just(SPEC), st.just("/nonexistent/spec.json")),
    "--family": mostly(st.sampled_from(["example2", "example3"]),
                       st.sampled_from(["first_order", "explicit", "nope", ""])),
    "--horizon": _COUNTS,
    "--terms": _COUNTS,
    "--free": mostly(
        st.lists(st.tuples(st.integers(-2, 12), _RATIONALS), max_size=4).map(
            lambda pairs: ",".join(f"{i}={v}" for i, v in pairs)), _JUNK),
    "--g": mostly(st.lists(_RATIONALS, min_size=1, max_size=30).map(",".join), _JUNK),
    "--format": mostly(st.sampled_from(["json", "csv", "pretty"]), st.just("xml")),
    "--first-index": mostly(st.integers(-5, 5).map(str), _JUNK),
    "--seed": mostly(st.integers(0, 9).map(str), _JUNK),
}

_ATOMS = st.sampled_from(["n", "j", "0", "1", "2", "7", "cospi2(n)",
                          "cospi2(2*n - j)", "cospi2(n/2)"])


def _compound(children):
    return (st.tuples(children, st.sampled_from("+-*/"), children).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})")
            | st.tuples(children, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}")
            | children.map(lambda e: f"-{e}")
            | children.map(lambda e: f"cospi2({e})"))


_JUNK_VALUES = st.booleans() | st.none() | st.sampled_from(["1/0", "x", "", 1.5, [], {}])
_VALUES = mostly(_RATIONALS | st.integers(-9, 9), _JUNK_VALUES)
# division by zero, j where no column applies, and syntax errors included
_EXPRS = mostly(st.recursive(_ATOMS, _compound, max_leaves=6),
                st.sampled_from(["1/0", "1/(n - n)", "j/(j - n)", "n +", "(",
                                 "2^", "n^-1", "", "y"])
                | _JUNK_VALUES | st.lists(_VALUES, max_size=4))
_ROWS = mostly(
    st.lists(st.dictionaries(st.integers(0, 12), _RATIONALS, max_size=4).map(
        lambda row: [[c, row[c]] for c in sorted(row)]), min_size=1, max_size=8),
    # bad columns (far ones included), bad values, bad entry shapes
    st.lists(st.lists(
        st.tuples(st.integers(-2, 12)
                  | st.sampled_from(["1", 1.5, True, MAX_COLUMN + 1, 10 ** 12]),
                  _VALUES).map(list) | st.sampled_from([[1], 5, "x", [0, "1", 2]]),
        max_size=4), max_size=6) | _JUNK_VALUES)


_REGULAR = ["first_order", "second_order", "n_order", "ascending"]


@st.composite
def specs(draw, regular=False):
    """A spec file's text; ``regular`` favours the families ``hess`` reads."""
    families = _REGULAR if regular else _REGULAR + ["example2", "example3", "explicit"]
    family = draw(mostly(st.sampled_from(families),
                         st.sampled_from(["example3", "nope", None])))
    obj = {} if family is None else {"family": family}
    wanted = {"first_order": "a", "second_order": "a b", "n_order": "N a",
              "ascending": "N a", "explicit": "rows"}.get(family, "").split()
    for key in ("N", "a", "b", "rows", "g", "expect"):
        if draw(st.sampled_from(range(10))) >= (9 if key in wanted else 2):
            continue
        if key == "N":
            obj[key] = draw(mostly(st.integers(0, 3), st.integers(-2, -1) | st.booleans()
                                   | st.sampled_from(["2", 2.0, None])))
        elif key in ("a", "b"):
            obj[key] = draw(_EXPRS)
        elif key == "rows":
            obj[key] = draw(_ROWS)
        elif key == "g":
            obj[key] = draw(mostly(st.lists(_VALUES, max_size=12), _JUNK_VALUES))
        else:
            obj[key] = draw(mostly(
                st.fixed_dictionaries({"h": _ROWS, "q": _ROWS}),
                st.fixed_dictionaries({}, optional={"h": _ROWS, "q": _ROWS})
                | _JUNK_VALUES))
    if draw(st.sampled_from(range(20))) == 0:
        return draw(st.sampled_from(["[]", '"x"', "{", "null", "[" * 50]))
    return json.dumps(obj)


@st.composite
def invocations(draw):
    name, _, _, flags, _ = draw(st.sampled_from(cli._COMMANDS))
    own = [f for f in flags.split() if f not in ("--spec", "--family")]
    source = draw(mostly(st.sampled_from([["--spec"], ["--spec"], ["--family"]]),
                         st.sampled_from([["--spec", "--family"], []])))
    argv = [name]
    for flag in source + draw(st.lists(st.sampled_from(own), unique=True)):
        # flag=value, so that a value such as -1/2 is not read as a flag
        argv.append(f"{flag}={draw(_FLAG_VALUES[flag])}"
                    if flag in _FLAG_VALUES else flag)
    return argv, draw(specs(regular=name == "hess"))


def exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:   # argparse rejects a flag value it types
            return exc.code


@settings(max_examples=200, deadline=None)
@given(invocations())
@example((["reduce", "--spec", SPEC], "[" * 100000))
@example((["verify", "--spec", SPEC, "--horizon", "4"],
          json.dumps({"family": "example3",
                      "expect": {"h": [[]], "q": [[[1000000000, "1"]]]}})))
@example((["reduce", "--spec", SPEC, "--horizon=2", "--format=csv"],
          json.dumps({"rows": [[[10 ** 12, "1"]], [[0, "1"]]]})))
def test_every_invocation_ends_in_a_documented_exit_code(case):
    argv, spec_text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec_text)
        code = exit_code([arg.replace(SPEC, path) for arg in argv])
    assert code in range(5)
