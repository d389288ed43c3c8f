"""Golden outputs: each CLI invocation below must print exactly what it
printed when its digest was recorded.

``golden_digests.json`` holds, per invocation, the exit code and the SHA-256
of stdout and of the last line of stderr (the error message, with the spec
directory written as ``<dir>``; argparse's usage text above it varies
between Python versions).  The
invocations cover all five commands, every builtin family, every
``--format`` and the exit codes 1 to 4.  A change meant to alter an output
re-records the digests, which prints each case whose digest moved, was added
or was dropped:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from rowfinite.cli import main

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden_digests.json")

SPECS = {
    "first_order": {"family": "first_order", "a": "n + 1"},
    "first_order_g": {"family": "first_order", "a": "2",
                      "g": ["1", "-1", "1/2", "0", "3", "1", "1", "2"]},
    "second_order": {"family": "second_order", "a": "n", "b": "-(n + 1)/2"},
    "n_order": {"family": "n_order", "N": 3, "a": "(n + j + 1)/(j - n + 1)"},
    "ascending": {"family": "ascending", "N": 1,
                  "a": "cospi2(n + j) + j - n + 1"},
    "explicit": {"rows": [[[0, "1"], [2, "-1/2"]], [[1, "3"]],
                          [[0, "2"], [2, "-1"]], [[0, "1"], [3, "1"]],
                          [[1, "1"], [2, "1"]]]},
    "expect_ok": {"rows": [[[0, "1"]], [[0, "1"], [1, "1"]]],
                  "expect": {"q": [[[0, "-1"], [1, "1"]]], "h": [[[1, "1"]]]}},
    "expect_bad": {"rows": [[[0, "1"]], [[0, "1"], [1, "1"]]],
                   "expect": {"q": [[[1, "1"]]], "h": [[[1, "1"]]]}},
    "bad_expr": {"family": "first_order", "a": "n + * 2"},
    "div_zero": {"family": "first_order", "a": "1/(n - 3)"},
    "div_zero_late": {"family": "first_order", "a": "1/(n - 5)"},
    "cospi2_half": {"family": "n_order", "N": 1, "a": "cospi2(n/2) + 2"},
    "uses_j": {"family": "first_order", "a": "j"},
    "vanishing": {"family": "n_order", "N": 1, "a": "n - 3"},
}

# name -> argv; "{dir}" stands for the directory holding SPECS as files
CASES = {
    "reduce-example2-json": "reduce --family example2 --horizon 12",
    "reduce-example2-csv": "reduce --family example2 --horizon 12 --format csv",
    "reduce-example2-pretty": "reduce --family example2 --horizon 8 --format pretty",
    "reduce-example3-json": "reduce --family example3 --horizon 16",
    "reduce-example3-csv": "reduce --family example3 --horizon 10 --format csv",
    "reduce-example3-pretty": "reduce --family example3 --horizon 6 --format pretty",
    "reduce-first_order": "reduce --spec {dir}/first_order.json --horizon 6",
    "reduce-second_order-pretty":
        "reduce --spec {dir}/second_order.json --horizon 6 --format pretty",
    "reduce-n_order": "reduce --spec {dir}/n_order.json --horizon 8",
    "reduce-ascending-csv": "reduce --spec {dir}/ascending.json --horizon 6 --format csv",
    "reduce-explicit": "reduce --spec {dir}/explicit.json --horizon 5",
    "reduce-explicit-pretty": "reduce --spec {dir}/explicit.json --horizon 5 --format pretty",
    "solve-example2": "solve --family example2 --terms 10 --free 0=1,1=-2,3=1/2",
    "solve-example3-csv": "solve --family example3 --terms 12 --free 0=1,4=-1 --format csv",
    "solve-second_order-pretty":
        "solve --spec {dir}/second_order.json --terms 8 --free 0=1,1=1 --format pretty",
    "solve-first_order_g": "solve --spec {dir}/first_order_g.json --terms 6 --free 0=1",
    "solve-n_order-g": "solve --spec {dir}/n_order.json --terms 8 --g 1,0,1/2,2,0,0,1,1",
    "solve-explicit-csv": "solve --spec {dir}/explicit.json --horizon 5 --terms 4 --format csv",
    "solve-example3-first-index":
        "solve --family example3 --terms 6 --free 4=3 --first-index 5 --format pretty",
    "fundamental-example2": "fundamental --family example2 --terms 10",
    "fundamental-example2-pretty": "fundamental --family example2 --terms 8 --format pretty",
    "fundamental-example3-csv": "fundamental --family example3 --terms 12 --format csv",
    "fundamental-example3-json": "fundamental --family example3 --terms 20",
    # a sequence of an inaccessible column at or past --terms prints as zeros
    "fundamental-example3-terms-below-horizon-csv":
        "fundamental --family example3 --horizon 16 --terms 6 --format csv",
    "fundamental-example2-terms-past-horizon": "fundamental --family example2 --horizon 4 --terms 6",
    "fundamental-second_order": "fundamental --spec {dir}/second_order.json --terms 8",
    "fundamental-ascending-pretty":
        "fundamental --spec {dir}/ascending.json --terms 6 --format pretty --first-index 0",
    "hess-first_order": "hess --spec {dir}/first_order.json --terms 8 --free 0=1",
    "hess-second_order-verify":
        "hess --spec {dir}/second_order.json --terms 8 --free 0=1,1=-1 "
        "--g 1,2,3,4,5,6,7,8 --verify-against-elimination",
    "hess-n_order-csv":
        "hess --spec {dir}/n_order.json --terms 8 --free 2=1 --format csv "
        "--verify-against-elimination",
    "hess-ascending-pretty": "hess --spec {dir}/ascending.json --terms 6 --format pretty",
    "verify-example2": "verify --family example2 --horizon 12 --seed 3",
    "verify-example3": "verify --family example3 --horizon 12",
    "verify-second_order": "verify --spec {dir}/second_order.json --horizon 8",
    "verify-n_order": "verify --spec {dir}/n_order.json --horizon 6 --seed 7",
    # dense rows: the cross-check's closed forms read every coefficient
    "verify-ascending": "verify --spec {dir}/ascending.json --horizon 8",
    "verify-explicit": "verify --spec {dir}/explicit.json --horizon 5",
    "verify-expect-ok": "verify --spec {dir}/expect_ok.json --horizon 2",
    "exit1-verify-expect-bad": "verify --spec {dir}/expect_bad.json --horizon 2",
    "exit2-unknown-family": "reduce --family nosuch",
    "exit2-syntax": "reduce --spec {dir}/bad_expr.json",
    "exit2-missing-file": "reduce --spec {dir}/absent.json",
    "exit2-hess-irregular": "hess --family example2 --terms 4",
    "exit2-accessible-free": "solve --family example2 --terms 5 --free 2=1",
    "exit2-horizon-zero": "reduce --family example2 --horizon 0",
    "exit2-vanishing-trailing": "solve --spec {dir}/vanishing.json --terms 6",
    "exit2-usage": "reduce --family example2 --terms 3",
    "exit2-other-script-digit-flag": "reduce --family example2 --horizon \u0663 --format csv",
    "exit2-short-forcing-solve": "solve --family example3 --horizon 10 --terms 10 --g 1,0",
    "exit2-short-forcing-hess": "hess --spec {dir}/ascending.json --terms 6 --g 1",
    "exit3-division-by-zero": "solve --spec {dir}/div_zero.json --terms 6",
    # row 5 fails past the short forcing prefix; as in solve, the row wins
    "exit3-division-by-zero-past-short-forcing-hess":
        "hess --spec {dir}/div_zero_late.json --terms 8 --g 1,1,1 --format csv",
    "exit3-cospi2-half": "reduce --spec {dir}/cospi2_half.json --horizon 4",
    "exit3-j-unset": "fundamental --spec {dir}/uses_j.json --terms 3",
    "exit4-inconsistent": "solve --family example3 --terms 12 --g 0,0,0,0,0,0,1,0,0,0,0,0",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def observe(argv: str, spec_dir: str) -> dict:
    """Run one invocation in process; its exit code and output digests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv.replace("{dir}", spec_dir).split())
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    return {"code": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue().rstrip("\n").rpartition("\n")[2]
                           .replace(spec_dir, "<dir>"))}


def write_specs(spec_dir: str) -> None:
    for name, spec in SPECS.items():
        with open(os.path.join(spec_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("golden"))
    write_specs(path)
    return path


@pytest.fixture(scope="module")
def recorded():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_the_recorded_digest(name, spec_dir, recorded):
    assert observe(CASES[name], spec_dir) == recorded[name]


def changes(old: dict, new: dict) -> list:
    """One line per case whose digest moved, was added or was dropped."""
    return ([f"moved {name}" for name in sorted(old.keys() & new.keys())
             if old[name] != new[name]]
            + [f"added {name}" for name in sorted(new.keys() - old.keys())]
            + [f"dropped {name}" for name in sorted(old.keys() - new.keys())])


def record(path: str = DIGESTS) -> None:
    """Re-record the digests at ``path`` and print which ones changed."""
    with tempfile.TemporaryDirectory() as spec_dir:
        write_specs(spec_dir)
        table = {name: observe(argv, spec_dir) for name, argv in sorted(CASES.items())}
    old = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("\n".join(changes(old, table)) or "no digest changed")


def test_record_reports_each_case_that_changed(tmp_path, monkeypatch, capsys):
    kept = ("exit2-unknown-family", "exit2-horizon-zero", "exit2-usage")
    monkeypatch.setitem(globals(), "CASES", {name: CASES[name] for name in kept})
    path = str(tmp_path / "digests.json")
    record(path)
    assert capsys.readouterr().out.splitlines() == [
        "added exit2-horizon-zero", "added exit2-unknown-family", "added exit2-usage"]
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    table["exit2-horizon-zero"]["code"] = 0
    table["gone"] = table.pop("exit2-usage")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh)
    record(path)
    assert capsys.readouterr().out.splitlines() == [
        "moved exit2-horizon-zero", "added exit2-usage", "dropped gone"]
    record(path)
    assert capsys.readouterr().out.splitlines() == ["no digest changed"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
