import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowfinite import (EliminationState, FiniteRow, build_family, cli,
                       equation_from_obj, format_scalar, general_prefix, run,
                       solver)
from rowfinite.cli import main
from rowfinite.sources import MAX_COLUMN
from conftest import corrupt_transform_row, dense, shuffled_length_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def reduce_payload(state, horizon):
    """The ``reduce`` JSON document as a dict of Python values, for the
    generic encoder to serialize."""
    def rows(rs):
        return [[[c, format_scalar(v)] for c, v in r.items()] for r in rs]
    mode = "gauss_only" if state.certified else "gauss_jordan"
    return {"command": "reduce", "horizon": horizon, "mode": mode,
            "certified": state.certified, "rows": rows(state.h_rows),
            "q_rows": rows(state.q_rows), "j_set": state.j_set,
            "w_set": state.w_set, "mu": state.mu,
            "stable_since": state.stable_since()}


class TestReduce:
    def test_showcase_equation_json(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--family", "example2",
                               "--horizon", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["w_set"] == [1]
        assert payload["rows"][1] == []
        assert payload["rows"][7] == [[1, "724992"], [3, "-181312"], [9, "1"]]
        assert payload["mode"] == "gauss_jordan"
        assert payload["certified"] is False

    def test_cosine_equation_json(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--family", "example3",
                               "--horizon", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["w_set"] == [6, 10]
        assert payload["q_rows"][0] == [[0, "1"], [1, "1"], [2, "-1"]]
        assert payload["stable_since"][:3] == [2, 2, 2]

    def test_single_explicit_row(self, capsys, tmp_path):
        spec = tmp_path / "one.json"
        spec.write_text(json.dumps({"rows": [[[0, "1"]]]}))
        code, out, _ = run_cli(capsys, "reduce", "--spec", str(spec),
                               "--horizon", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == [[[0, "1"]]]
        assert payload["q_rows"] == [[[0, "1"]]]

    def test_horizon_past_explicit_rows(self, capsys, tmp_path):
        spec = tmp_path / "three.json"
        spec.write_text(json.dumps({"rows": [[[0, "1"]], [], [[1, "2"]]]}))
        code, out, err = run_cli(capsys, "reduce", "--spec", str(spec),
                                 "--horizon", "4")
        assert (code, out) == (2, "")
        assert err == "error: explicit source has 3 rows, row 3 requested\n"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--family", "example2",
                               "--horizon", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "0,-2,1,0,0"

    def test_csv_holds_one_row_of_cells_at_a_time(self):
        # 100 rows of 10,000 cells: all cells at once would take 30x the text
        rows = [FiniteRow([(10_000 - i, 1)]) for i in range(100)]
        tracemalloc.start()
        try:
            text = "\n".join(cli._rows_csv(rows))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)

    def test_dense_formats_match_the_fraction_renderer(self, capsys, monkeypatch,
                                                       tmp_path):
        # the cells as built before: every cell a Fraction of the dense row
        def cells(rows):
            width = max(r.length + 1 for r in rows)
            return [[format_scalar(v) for v in dense(r, width)] for r in rows]

        def old_csv(rows):
            return "\n".join(",".join(line) for line in cells(rows))

        def old_pretty(rows):
            table = cells(rows)
            col_w = [max(map(len, column)) for column in zip(*table)]
            return "\n".join("  ".join(c.rjust(w) for c, w in zip(line, col_w))
                             for line in table)

        rng = random.Random(14)
        seen_gap = False
        for draw in range(40):
            used = sorted(rng.sample(range(12), rng.randint(1, 8)))
            seen_gap |= used != list(range(len(used)))
            rows = [[] if rng.random() < 0.2 else
                    [[c, format_scalar(Fraction(rng.choice([-7, -3, -1, 1, 2, 9]),
                                                rng.randint(1, 4)))]
                     for c in sorted(rng.sample(used, rng.randint(1, len(used))))]
                    for _ in range(rng.randint(1, 9))]
            spec = tmp_path / f"m{draw}.json"
            spec.write_text(json.dumps({"rows": rows}))
            for fmt in ("csv", "pretty"):
                argv = ("reduce", "--spec", str(spec), "--horizon", str(len(rows)),
                        "--format", fmt)
                new = run_cli(capsys, *argv)
                with monkeypatch.context() as m:   # each text printed as one piece
                    m.setattr(cli, "_rows_csv", lambda rows: [old_csv(rows)])
                    m.setattr(cli, "_pretty_rows",
                              lambda rows: [old_pretty(list(rows()))])
                    assert run_cli(capsys, *argv) == new
        assert seen_gap

    @pytest.mark.parametrize("fmt", ["csv", "pretty"])
    def test_dense_output_is_written_a_line_at_a_time(self, monkeypatch, tmp_path, fmt):
        class LongestWrite:
            """A stdout that keeps the length of its longest write and line."""
            write_len = line_len = line = 0

            def write(self, text):
                self.write_len = max(self.write_len, len(text))
                head, *ended = text.split("\n")
                self.line += len(head)
                for part in ended:
                    self.line_len, self.line = max(self.line_len, self.line), len(part)
                return len(text)

            def flush(self):
                pass

        spec = tmp_path / "far.json"
        spec.write_text(json.dumps({"rows": [[[MAX_COLUMN - 99 + i, "1"]]
                                             for i in range(100)]}))
        sink = LongestWrite()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["reduce", "--spec", str(spec), "--horizon", "100",
                     "--format", fmt]) == 0
        assert sink.line_len > MAX_COLUMN
        assert sink.write_len <= sink.line_len

    def test_pretty_format_runs(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--family", "example3",
                               "--horizon", "4", "--format", "pretty")
        assert code == 0 and "j_set" in out

    @pytest.mark.parametrize("argv", [("reduce", "--format", "pretty"),
                                      ("reduce",), ("verify",)])
    def test_q_is_replayed_and_never_listed(self, capsys, monkeypatch, argv):
        # pretty reads Q for its column widths and then to print; verify
        # judges left-association and the transform-row invariants on one
        # replay
        replays = []
        replay = EliminationState.transform_rows

        def counted(state):
            replays.append(state.k)
            return replay(state)

        def listed(state):
            raise AssertionError("all of Q held at once")

        monkeypatch.setattr(EliminationState, "transform_rows", counted)
        monkeypatch.setattr(EliminationState, "q_rows", property(listed))
        code, _, _ = run_cli(capsys, *argv, "--family", "example2", "--horizon", "8")
        assert code == 0
        assert replays == [8] * (2 if argv == ("reduce", "--format", "pretty") else 1)

    def test_json_renders_no_text_matrices(self, capsys, monkeypatch):
        def unused(rows):
            raise AssertionError("text rendering for another format")
        monkeypatch.setattr(cli, "_pretty_rows", unused)
        monkeypatch.setattr(cli, "_rows_csv", unused)
        code, out, _ = run_cli(capsys, "reduce", "--family", "example2",
                               "--horizon", "8", "--format", "json")
        assert code == 0
        assert json.loads(out)["w_set"] == [1]

    @pytest.mark.parametrize("family", ["example2", "example3"])
    @pytest.mark.parametrize("horizon", [1, 12, 48])
    def test_json_bytes_match_the_generic_encoder(self, capsys, family, horizon):
        code, out, _ = run_cli(capsys, "reduce", "--family", family,
                               "--horizon", str(horizon))
        assert code == 0
        state = run(build_family({"family": family}), horizon)
        assert out == json.dumps(reduce_payload(state, horizon), indent=2) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(shuffled_length_rows())
    def test_streamed_json_matches_the_generic_encoder(self, rows):
        # rows in random length order: cross-clears and shifts make
        # transform rows final late, so the stream writes them out of step
        # with the pushes
        obj = {"rows": [[[c, format_scalar(v)] for c, v in r.items()] for r in rows]}
        horizon = str(len(rows))
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            spec = os.path.join(tmp, "m.json")
            with open(spec, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            with contextlib.redirect_stdout(out):
                assert main(["reduce", "--spec", spec, "--horizon", horizon]) == 0
        state = run(build_family({"family": "explicit", **obj}), len(rows))
        expected = json.dumps(reduce_payload(state, len(rows)), indent=2) + "\n"
        assert out.getvalue() == expected

    @pytest.mark.parametrize("horizon", [1, 3])
    def test_json_bytes_with_empty_rows_and_sets(self, capsys, tmp_path, horizon):
        # row 0 is zero: at horizon 1, j_set and mu are empty; row 2 is
        # row 1 doubled, so at horizon 3 two rows print as []
        rows = [[], [[0, "1/2"], [2, "-3"]], [[0, "1"], [2, "-6"]]]
        spec = tmp_path / "zero.json"
        spec.write_text(json.dumps({"rows": rows}))
        code, out, _ = run_cli(capsys, "reduce", "--spec", str(spec),
                               "--horizon", str(horizon))
        assert code == 0
        state = run(build_family({"family": "explicit", "rows": rows}), horizon)
        assert out == json.dumps(reduce_payload(state, horizon), indent=2) + "\n"
        assert json.loads(out)["rows"][0] == []

    def test_json_entries_past_the_int_string_limit(self, capsys, tmp_path):
        # numerators, then denominators, of more than 4,300 digits; in 14 of
        # the 20 transform rows they sit beside short entries, so the row is
        # written again once its first long entry is reached
        spec = tmp_path / "big.json"
        for a in ("(n+2)^1000", "1/(n+2)^1000"):
            obj = {"family": "first_order", "a": a}
            spec.write_text(json.dumps(obj))
            code, out, _ = run_cli(capsys, "reduce", "--spec", str(spec),
                                   "--horizon", "20")
            assert code == 0
            state = run(build_family(obj), 20)
            payload = reduce_payload(state, 20)
            assert out == json.dumps(payload, indent=2) + "\n"
            lengths = [[len(text) for _, text in row] for row in payload["q_rows"]]
            assert sum(min(ls) <= 4300 < max(ls) for ls in lengths) == 14
            n, col, text = max(((n, col, text) for n, row in enumerate(payload["q_rows"])
                                for col, text in row), key=lambda e: len(e[2]))
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            setter = getattr(sys, "set_int_max_str_digits", lambda digits: None)
            setter(0)
            try:
                assert Fraction(text) == state.q_rows[n].get(col)
            finally:
                setter(limit)

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "reduce", "--family", "example3",
                              "--horizon", "12")
        _, second, _ = run_cli(capsys, "reduce", "--family", "example3",
                               "--horizon", "12")
        assert first == second


class TestSolve:
    def test_prints_values_past_the_int_string_limit(self, capsys, tmp_path):
        # y_k = ((k+1)!)^1000: y_7 has 4,606 digits, more than int() will
        # convert to text by default
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({"family": "first_order", "a": "(n+2)^1000"}))
        code, out, err = run_cli(capsys, "solve", "--spec", str(spec), "--terms", "8",
                                 "--free", "0=1", "--format", "csv")
        assert code == 0 and not err
        last = out.strip().split(",")[-1]
        assert len(last) == 4606
        value = 0
        for start in range(0, len(last), 1000):
            chunk = last[start:start + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == 40320 ** 1000

    def test_basis_sequence_via_free_constants(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--family", "example2",
                               "--horizon", "8", "--terms", "7",
                               "--free", "0=0,1=1,3=0", "--format", "csv")
        assert code == 0
        assert out.strip() == "0,1,2,0,-24,-192,-1344"

    def test_all_zero_free_constants(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--family", "example3",
                               "--horizon", "12", "--terms", "8",
                               "--format", "csv")
        assert code == 0
        assert out.strip() == "0,0,0,0,0,0,0,0"

    def test_inconsistent_forcing_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--family", "example3",
                               "--horizon", "12", "--terms", "8",
                               "--g", "0,0,0,0,0,0,1,0,0,0,0,0")
        assert code == 4
        assert "[6]" in err

    def test_free_constants_checked_before_consistency(self, capsys):
        args = ("solve", "--family", "example3", "--horizon", "12",
                "--terms", "8", "--g", "0,0,0,0,0,0,1,0,0,0,0,0")
        code, out, err = run_cli(capsys, *args, "--free", "2=1")
        assert code == 2 and not out
        assert "free constant at accessible index 2" in err
        code, _, _ = run_cli(capsys, *args)
        assert code == 4

    def test_short_forcing_covers_the_rows_it_needs(self, capsys):
        args = ("solve", "--family", "example2", "--horizon", "12",
                "--terms", "6", "--format", "csv")
        code, out, _ = run_cli(capsys, *args, "--g=0,0,0,0,0,0,0,0,0,0")
        assert code == 0
        assert out.strip() == "0,0,0,0,0,0"
        code, out, err = run_cli(capsys, *args, "--g=0")
        assert code == 2 and not out
        assert err == ("error: forcing prefix has 1 terms counted from g_0; "
                       "the requested output needs 4\n")

    def test_free_at_accessible_index_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--family", "example2",
                               "--horizon", "8", "--terms", "5",
                               "--free", "2=1")
        assert code == 2
        assert "accessible index 2" in err

    def test_regular_order_default_offset(self, capsys, tmp_path):
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps({"family": "first_order", "a": "2"}))
        code, out, _ = run_cli(capsys, "solve", "--spec", str(spec),
                               "--terms", "4", "--free", "0=1")
        assert code == 0
        payload = json.loads(out)
        assert payload["first_index"] == -1
        assert payload["terms"][0] == {"index": -1, "value": "1"}
        assert [t["value"] for t in payload["terms"]] == ["1", "2", "4", "8"]

    def test_reduce_output_round_trips(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reduce", "--family", "example2",
                               "--horizon", "8")
        assert code == 0
        reduced = tmp_path / "reduced.json"
        reduced.write_text(out)
        args = ("--horizon", "8", "--terms", "7", "--free", "0=0,1=1,3=0")
        code1, direct, _ = run_cli(capsys, "solve", "--family", "example2", *args)
        code2, replay, _ = run_cli(capsys, "solve", "--spec", str(reduced), *args)
        assert code1 == code2 == 0
        assert direct == replay

    def test_explicit_first_index_override(self, capsys, tmp_path):
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps({"family": "first_order", "a": "2"}))
        code, out, _ = run_cli(capsys, "solve", "--spec", str(spec),
                               "--terms", "3", "--free", "0=1",
                               "--first-index", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["first_index"] == 0
        assert payload["terms"][0] == {"index": 0, "value": "1"}

    @pytest.mark.parametrize("obj,expected", [
        ({"family": "first_order", "a": 2}, "1,2,4"),
        ({"family": "n_order", "N": 1, "a": 3}, "1,-1,1"),
    ])
    def test_numeric_coefficients(self, capsys, tmp_path, obj, expected):
        spec = tmp_path / "num.json"
        spec.write_text(json.dumps(obj))
        code, out, _ = run_cli(capsys, "solve", "--spec", str(spec), "--terms", "3",
                               "--free", "0=1", "--format", "csv")
        assert (code, out) == (0, expected + "\n")

    def test_forcing_from_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "eq.json"
        spec.write_text(json.dumps({"family": "first_order", "a": "2",
                                    "g": ["1", "1", "1", "1", "1"]}))
        code, out, _ = run_cli(capsys, "solve", "--spec", str(spec),
                               "--horizon", "5", "--terms", "6",
                               "--format", "csv")
        assert code == 0
        assert out.strip() == "0,1,3,7,15,31"


class TestFundamental:
    def test_three_sequences(self, capsys):
        code, out, _ = run_cli(capsys, "fundamental", "--family", "example2",
                               "--horizon", "8", "--terms", "7")
        assert code == 0
        payload = json.loads(out)
        assert [s["s"] for s in payload["sequences"]] == [0, 1, 3]

    def test_four_spaced_sequences(self, capsys):
        code, out, _ = run_cli(capsys, "fundamental", "--family", "example3",
                               "--horizon", "13", "--terms", "14")
        assert code == 0
        payload = json.loads(out)
        assert [s["s"] for s in payload["sequences"]] == [0, 4, 8, 12]

    def test_regular_order_finite_basis(self, capsys, tmp_path):
        spec = tmp_path / "band.json"
        spec.write_text(json.dumps({"family": "n_order", "N": 2,
                                    "a": "j - n + 1"}))
        code, out, _ = run_cli(capsys, "fundamental", "--spec", str(spec),
                               "--horizon", "6", "--terms", "6")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["sequences"]) == 2
        assert [s["s"] for s in payload["sequences"]] == [-2, -1]

    @pytest.mark.parametrize("obj", [
        {"family": "first_order", "a": "n + 1"},
        {"family": "second_order", "a": "n", "b": "-(n + 1)/2"},
        {"family": "n_order", "N": 2, "a": "j - n + 1"},
        {"family": "ascending", "N": 1, "a": "cospi2(n + j) + j - n + 1"},
        {"family": "example2"},
        {"family": "example3"},
        {"rows": [[[0, "1"], [2, "-1"]], [[1, "3"]], [[0, "2"], [2, "-2"]]]},
    ], ids=lambda obj: obj.get("family", "explicit"))
    def test_basis_kind_and_mode_follow_certified(self, capsys, tmp_path, obj):
        # a certified state's inaccessible set is complete: a finite basis
        spec = tmp_path / "eq.json"
        spec.write_text(json.dumps(obj))
        certified = run(equation_from_obj(obj).source, 3).certified
        args = ("--spec", str(spec), "--horizon", "3")
        code, out, _ = run_cli(capsys, "fundamental", *args, "--terms", "3")
        assert code == 0
        assert json.loads(out)["basis_kind"] == ("finite" if certified
                                                 else "schauder_prefix")
        code, out, _ = run_cli(capsys, "reduce", *args)
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is certified
        assert payload["mode"] == ("gauss_only" if certified else "gauss_jordan")


class TestHess:
    def test_doubling_plus_one(self, capsys, tmp_path):
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps({"family": "first_order", "a": "2",
                                    "g": ["1"] * 8}))
        code, out, _ = run_cli(capsys, "hess", "--spec", str(spec),
                               "--terms", "5", "--format", "csv")
        assert code == 0
        assert out.strip() == "1,3,7,15,31"

    def test_constant_homogeneous_sequence(self, capsys, tmp_path):
        spec = tmp_path / "band.json"
        spec.write_text(json.dumps({
            "family": "n_order", "N": 2,
            "a": "2 - 5*(j-n) + 9*(j-n)*((j-n)-1)/2",
        }))
        code, out, _ = run_cli(capsys, "hess", "--spec", str(spec),
                               "--terms", "5", "--free", "0=1,1=1",
                               "--format", "csv")
        assert code == 0
        assert out.strip() == "1,1,1,1,1"

    def test_cross_check_match(self, capsys, tmp_path):
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps({"family": "first_order", "a": "2",
                                    "g": ["1"] * 8}))
        code, out, _ = run_cli(capsys, "hess", "--spec", str(spec),
                               "--terms", "5", "--format", "csv",
                               "--verify-against-elimination")
        assert code == 0
        assert out.strip().endswith("MATCH")

    @pytest.mark.parametrize("forcing", [(), ("--g=0,0",), ("--g=1,0",), ("--g=0",)])
    def test_every_row_is_read_before_its_forcing_term(self, capsys, tmp_path,
                                                       forcing):
        # row 2 fails to evaluate; as in solve, that error wins whether the
        # terms so far are 0 or not, and before --g=0,0 runs short at term 2
        # or --g=0 at term 1, a row before the failing one
        spec = tmp_path / "div.json"
        spec.write_text(json.dumps({"family": "first_order", "a": "1/(n - 2)"}))
        args = ("--spec", str(spec), "--terms", "5", "--format", "csv", *forcing)
        hess = run_cli(capsys, "hess", *args)
        solve = run_cli(capsys, "solve", *args)
        assert hess == solve == (3, "", "error: row 2: division by zero\n")

    @pytest.mark.parametrize("family,free,message", [
        pytest.param({"family": "first_order", "a": "n + 1"}, "1=1",
                     "initial values live at indices 0..0, got 1", id="1=1"),
        pytest.param({"family": "first_order", "a": "n + 1"}, "-1=1",
                     "initial values live at indices 0..0, got -1", id="-1=1"),
        pytest.param({"family": "n_order", "N": 0, "a": "1"}, "0=1",
                     "an equation of order 0 takes no initial values, got 0",
                     id="order-0"),
    ])
    def test_initial_value_outside_the_order_exits_2(self, capsys, tmp_path,
                                                     family, free, message):
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps(family))
        code, out, err = run_cli(capsys, "hess", "--spec", str(spec),
                                 f"--free={free}")
        assert code == 2 and not out
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("fmt,expected", [
        ("csv", "1,3,7,15,0\nMISMATCH\n"),
        ("pretty", "y_0 = 1\ny_1 = 3\ny_2 = 7\ny_3 = 15\ny_4 = 0\nMISMATCH\n"),
        ("json", None),
    ])
    def test_cross_check_mismatch_exits_1(self, capsys, tmp_path, monkeypatch,
                                          fmt, expected):
        # a closed form that is wrong at its last term
        real = cli.hb.general_prefix
        monkeypatch.setattr(cli.hb, "general_prefix",
                            lambda *args: real(*args)[:-1] + [0])
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps({"family": "first_order", "a": "2",
                                    "g": ["1"] * 8}))
        code, out, _ = run_cli(capsys, "hess", "--spec", str(spec),
                               "--terms", "5", "--format", fmt,
                               "--verify-against-elimination")
        assert code == 1
        assert out == (expected or generic_json({
            "command": "hess", "index": 1,
            "terms": terms_payload([1, 3, 7, 15, 0], 0),
            "elimination_match": False}))

    def test_order_zero_cross_check_match(self, capsys, tmp_path):
        # N = 0: each row holds only its trailing entry, so each term reads
        # only its own forcing value
        spec = tmp_path / "diag.json"
        spec.write_text(json.dumps({"family": "n_order", "N": 0, "a": "n+1"}))
        code, out, _ = run_cli(capsys, "hess", "--spec", str(spec), "--terms", "4",
                               "--g", "1,4,9,16", "--format", "csv",
                               "--verify-against-elimination")
        assert code == 0
        assert out == "1,2,3,4\nMATCH\n"

    @pytest.mark.parametrize("command,terms", [("solve", "7"), ("hess", "6")])
    def test_short_forcing_message(self, capsys, tmp_path, command, terms):
        # both commands count from g_0 what --g gives and what the terms
        # read; solve's terms start at y_-1, hess's at y_0
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps({"family": "ascending", "N": 1, "a": "j + 1"}))
        args = (command, "--spec", str(spec), "--terms", terms, "--format", "csv")
        assert run_cli(capsys, *args, "--g", "1,2") == (
            2, "", "error: forcing prefix has 2 terms counted from g_0; "
                   "the requested output needs 6\n")
        assert run_cli(capsys, *args, "--g", "1,2,3,4,5,6")[0] == 0

    def test_irregular_spec_rejected(self, capsys):
        code, _, err = run_cli(capsys, "hess", "--family", "example2",
                               "--terms", "5")
        assert code == 2
        assert "regular-order" in err


class TestVerify:
    def test_cosine_equation_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "example3",
                               "--horizon", "12")
        assert code == 0
        assert "PASS left-association" in out
        assert "PASS qhf-postulates" in out
        assert "PASS residual" in out
        assert "FAIL" not in out

    def test_showcase_equation_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "example2",
                               "--horizon", "8")
        assert code == 0
        assert "FAIL" not in out
        assert "expected-pair" not in out   # the spec has no expect block

    def test_corrupted_state_fails_qhf_postulates(self, capsys, monkeypatch):
        def corrupted_run(source, horizon):
            # the last nonzero row scaled by 2, in H and in Q alike
            state = run(source, horizon)
            pos, length = state.j_set[-1], state.mu[-1]
            state.pivots[length] = state.pivots[length].combine((), 2)
            corrupt_transform_row(state, pos, lambda q: q.combine((), 2))
            return state
        monkeypatch.setattr(cli, "run", corrupted_run)
        code, out, _ = run_cli(capsys, "verify", "--family", "example3",
                               "--horizon", "12")
        assert code == 1
        assert "PASS left-association" in out
        assert "FAIL qhf-postulates" in out

    def test_regular_source_runs_cross_check(self, capsys, tmp_path):
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps({"family": "second_order",
                                    "a": "n + 1", "b": "2"}))
        code, out, _ = run_cli(capsys, "verify", "--spec", str(spec),
                               "--horizon", "10")
        assert code == 0
        assert "PASS hessenberg-cross-check" in out

    def test_intact_expectation_passes(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reduce", "--family", "example3",
                               "--horizon", "8")
        payload = json.loads(out)
        spec = tmp_path / "checked.json"
        spec.write_text(json.dumps({
            "family": "example3",
            "expect": {"h": payload["rows"], "q": payload["q_rows"]},
        }))
        code, out, _ = run_cli(capsys, "verify", "--spec", str(spec),
                               "--horizon", "8")
        assert code == 0
        assert out.splitlines()[1:3] == ["PASS left-association",
                                         "PASS expected-pair"]

    def test_corrupted_expectation_fails(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reduce", "--family", "example3",
                               "--horizon", "8")
        payload = json.loads(out)
        corrupt = [list(row) for row in payload["rows"]]
        corrupt[3] = [[0, "99"]] + corrupt[3]
        spec = tmp_path / "corrupt.json"
        spec.write_text(json.dumps({
            "family": "example3",
            "expect": {"h": corrupt, "q": payload["q_rows"]},
        }))
        code, out, _ = run_cli(capsys, "verify", "--spec", str(spec),
                               "--horizon", "8")
        assert code == 1
        assert "PASS left-association" in out
        assert "FAIL expected-pair" in out

    def test_half_expectation_rejected(self, capsys, tmp_path):
        spec = tmp_path / "half.json"
        spec.write_text(json.dumps({"family": "example3",
                                    "expect": {"h": [[[0, "1"]]]}}))
        code, _, err = run_cli(capsys, "verify", "--spec", str(spec),
                               "--horizon", "4")
        assert code == 2
        assert "'expect'" in err

    def test_expectation_past_the_consumed_rows_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "far.json"
        spec.write_text(json.dumps({"family": "example3", "expect": {
            "h": [[]], "q": [[[MAX_COLUMN, "1"]]]}}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--spec", str(spec),
                                 "--horizon", "4")
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == (f"error: 'expect' q reads source row {MAX_COLUMN}, "
                       "past the 4 rows consumed\n")

    def test_all_zero_matrix_passes(self, capsys, tmp_path):
        spec = tmp_path / "zero.json"
        spec.write_text('{"rows": [[], []]}')
        code, out, _ = run_cli(capsys, "verify", "--spec", str(spec),
                               "--horizon", "2")
        assert code == 0
        assert out == ("seed 0\nPASS left-association\nPASS qhf-postulates\n"
                       "PASS residual\n")

    def test_seed_recorded(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "example3",
                               "--horizon", "8", "--seed", "42")
        assert code == 0
        assert out.splitlines()[0] == "seed 42"


class TestUsageAndErrors:
    def test_missing_source_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "--horizon", "4")
        assert code == 2 and "--spec" in err

    def test_both_sources_exit_2(self, capsys, tmp_path):
        spec = tmp_path / "x.json"
        spec.write_text(json.dumps({"family": "example2"}))
        code, _, _ = run_cli(capsys, "reduce", "--spec", str(spec),
                             "--family", "example2", "--horizon", "4")
        assert code == 2

    def test_unknown_family_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "reduce", "--family", "nope",
                             "--horizon", "4")
        assert code == 2

    def test_bad_horizon_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "reduce", "--family", "example2",
                             "--horizon", "0")
        assert code == 2

    def test_evaluation_error_exits_3(self, capsys, tmp_path):
        spec = tmp_path / "div.json"
        spec.write_text(json.dumps({"family": "ascending", "N": 1,
                                    "a": "1/(n - 2)"}))
        code, _, err = run_cli(capsys, "reduce", "--spec", str(spec),
                               "--horizon", "4")
        assert code == 3
        assert "division by zero" in err

    @pytest.mark.parametrize("obj", [
        {"family": "n_order", "N": True, "a": "1"},
        {"family": "first_order", "a": [True, 2, 3]},
    ])
    def test_boolean_for_number_exits_2(self, capsys, tmp_path, obj):
        spec = tmp_path / "bool.json"
        spec.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "reduce", "--spec", str(spec),
                                 "--horizon", "2")
        assert code == 2 and not out
        assert "True" in err

    @pytest.mark.parametrize("obj,message", [
        ({"family": "first_order", "a": 1.5},
         "parameter 'a' must be an expression, constant, list, or callable"),
        ({"family": "n_order", "N": 1, "a": 1.5},
         "parameter 'a' must be an expression, constant, or callable"),
        ({"rows": [[[0, "1", 2]]]},
         "row entry must be a [column, value] pair, got [0, '1', 2]"),
        ({"rows": [[[0, "1"]]], "expect": 5},
         "'expect' must be an object with 'h' and/or 'q'"),
        ({"family": "first_order", "a": "2", "g": "10"},
         "'g' must be an array, got '10'"),
        ({"family": "first_order", "a": "2", "g": {"1": 0, "2": 0}},
         "'g' must be an array, got {'1': 0, '2': 0}"),
        ({"rows": "ab"}, "'rows' must be an array, got 'ab'"),
        ({"rows": ["", [[0, 1]]]}, "a row must be an array, got ''"),
        ({"rows": [[[0, "1"]]], "expect": {"h": "", "q": ""}},
         "'expect.h' must be an array, got ''"),
        ({"rows": [[[0, "1"]]], "expect": {"q": {"0": 1}}},
         "'expect.q' must be an array, got {'0': 1}"),
    ])
    def test_malformed_spec_value_exits_2(self, capsys, tmp_path, obj, message):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "reduce", "--spec", str(spec),
                                 "--horizon", "1")
        assert code == 2 and not out
        assert err == f"error: {message}\n"

    FAR_COMMANDS = [("verify",), ("reduce", "--format", "csv"),
                    ("reduce", "--format", "pretty")]

    @pytest.mark.parametrize("command", FAR_COMMANDS)
    @pytest.mark.parametrize("obj,far", [
        ({"rows": [[[MAX_COLUMN + 1, "1"]], [[0, "1"]]]}, MAX_COLUMN + 1),
        ({"rows": [[[10 ** 12, "1"]], [[0, "1"]]]}, 10 ** 12),
        ({"rows": [[[0, "1"]], [[0, "1"]]], "expect": {
            "h": [[], [[0, "1"]]], "q": [[[0, "1"], [MAX_COLUMN + 1, "1"]]]}},
         MAX_COLUMN + 1),
    ], ids=["past-the-bound", "far", "expect"])
    def test_column_past_the_bound_exits_2(self, capsys, tmp_path, command, obj, far):
        spec = tmp_path / "far.json"
        spec.write_text(json.dumps(obj))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *command, "--spec", str(spec),
                                 "--horizon", "2")
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == f"error: column must be at most {MAX_COLUMN}, got {far}\n"

    @pytest.mark.parametrize("command", FAR_COMMANDS)
    def test_column_at_the_bound_is_read(self, capsys, tmp_path, command):
        spec = tmp_path / "far.json"
        spec.write_text(json.dumps({"rows": [[[MAX_COLUMN, "1"]], [[0, "1"]]]}))
        code, out, _ = run_cli(capsys, *command, "--spec", str(spec),
                               "--horizon", "2")
        assert code == 0
        if command[0] == "reduce":
            assert out.count("0") >= MAX_COLUMN

    @pytest.mark.parametrize("command,message", [
        ("solve", "--free expects i=p/q pairs, got 'x'"),
        ("hess", "not a rational literal: 'z'"),
    ])
    def test_free_and_forcing_parse_order(self, capsys, tmp_path, command, message):
        # solve reads --free first, hess reads --g first
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps({"family": "first_order", "a": "2"}))
        code, out, err = run_cli(capsys, command, "--spec", str(spec),
                                 "--free=x", "--g=z")
        assert code == 2 and not out
        assert message in err

    def test_non_ascii_digit_in_a_spec_value_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "digit.json"
        spec.write_text(json.dumps({"rows": [[[0, "1/1\u0660"]]]}))
        code, out, err = run_cli(capsys, "reduce", "--spec", str(spec))
        assert code == 2 and not out
        assert "not a rational literal: '1/1\u0660'" in err

    def test_boolean_column_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "bool.json"
        spec.write_text('{"rows": [[[true, 1]]]}')
        code, out, err = run_cli(capsys, "reduce", "--spec", str(spec))
        assert code == 2 and not out
        assert err == "error: column must be a nonnegative integer, got True\n"

    @pytest.mark.parametrize("expr,offset", [
        ("(" * 3000 + "1" + ")" * 3000, 50),
        ("-" * 5000 + "1", 50),
        ("+".join(["1"] * 3000), 99),
        ("(n+2)^100000000", 6),
        ("(((n+2)^1000)^1000)^1000", 14),
    ])
    def test_hostile_expression_exits_2(self, capsys, tmp_path, expr, offset):
        spec = tmp_path / "deep.json"
        spec.write_text(json.dumps({"family": "first_order", "a": expr}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "solve", "--spec", str(spec),
                                 "--terms", "4")
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert f"at offset {offset}" in err

    @pytest.mark.parametrize("command", ["solve", "hess"])
    def test_empty_forcing_entry_exits_2(self, capsys, tmp_path, command):
        # a blank entry would shift every later forcing value if dropped
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps({"family": "first_order", "a": "2"}))
        code, out, err = run_cli(capsys, command, "--spec", str(spec),
                                 "--terms", "2", "--g", "1,,3")
        assert code == 2 and not out
        assert "not a rational literal: ''" in err

    @pytest.mark.parametrize("command,flag,value", [
        ("reduce", "--terms", "5"), ("reduce", "--free", "0=1"),
        ("reduce", "--g", "1"), ("reduce", "--seed", "1"),
        ("reduce", "--first-index", "5"),
        ("solve", "--seed", "1"),
        ("fundamental", "--free", "0=1"), ("fundamental", "--g", "1"),
        ("fundamental", "--seed", "1"),
        ("hess", "--horizon", "5"), ("hess", "--first-index", "5"),
        ("hess", "--seed", "1"),
        ("verify", "--terms", "5"), ("verify", "--free", "0=1"),
        ("verify", "--g", "1"), ("verify", "--format", "csv"),
        ("verify", "--first-index", "5"),
    ])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, tmp_path,
                                                     command, flag, value):
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps({"family": "first_order", "a": "2"}))
        with pytest.raises(SystemExit) as info:
            main([command, "--spec", str(spec), flag, value])
        out, err = capsys.readouterr()
        assert info.value.code == 2 and not out
        assert f"unrecognized arguments: {flag} {value}" in err

    @pytest.mark.parametrize("command", ["solve", "hess"])
    @pytest.mark.parametrize("free,message", [
        ("0=1,0=5", "index 0 twice"),
        ("0=1,,1=3", "pairs, got ''"),
        ("0=1,", "pairs, got ''"),
        ("", "pairs, got ''"),
        ("0_1=1", "integer, got '0_1'"),
    ])
    def test_malformed_free_exits_2(self, capsys, tmp_path, command, free, message):
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps({"family": "second_order", "a": "1", "b": "2"}))
        code, out, err = run_cli(capsys, command, "--spec", str(spec),
                                 "--terms", "3", f"--free={free}")
        assert code == 2 and not out
        assert message in err

    @pytest.mark.parametrize("flag,message", [
        ("--free=0=1,0=5", "index 0 twice"),
        ("--g=1,,3", "not a rational literal: ''"),
        ("--g=\u0663,0", "not a rational literal: '\u0663'"),
        ("--free=0=\u0663", "not a rational literal: '\u0663'"),
    ])
    def test_solve_parses_flags_before_the_elimination(self, capsys, tmp_path,
                                                       flag, message):
        # row 2 fails to evaluate (exit 3), but the flag error is reported first
        spec = tmp_path / "div.json"
        spec.write_text(json.dumps({"family": "ascending", "N": 1,
                                    "a": "1/(n - 2)"}))
        code, out, err = run_cli(capsys, "solve", "--spec", str(spec), flag)
        assert code == 2 and not out
        assert message in err

    @pytest.mark.parametrize("flag,argv", [
        ("--horizon", "reduce --family example2 --horizon \u0663 --format csv"),
        ("--terms", "solve --family example2 --horizon 8 --terms \u0664 --free 0=0,1=1,3=0"),
        ("--first-index", "fundamental --family example2 --terms 4 --first-index \u0663"),
        ("--seed", "verify --family example2 --seed \u0663"),
    ], ids=["horizon", "terms", "first-index", "seed"])
    def test_integer_flag_takes_ascii_digits_only(self, capsys, flag, argv):
        # int() reads ARABIC-INDIC DIGIT THREE as 3; a --free index does not
        words = argv.split()
        with pytest.raises(SystemExit) as info:
            main(words)
        out, err = capsys.readouterr()
        assert info.value.code == 2 and not out
        value = words[words.index(flag) + 1]
        assert err.endswith(f"error: argument {flag}: expected an integer of "
                            f"ASCII digits, got {value!r}\n")

    @pytest.mark.parametrize("family", ["n_order", "ascending"])
    @pytest.mark.parametrize("command", ["solve", "hess"])
    def test_huge_order_exits_2(self, capsys, tmp_path, family, command):
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps({"family": family, "N": 1000000000, "a": "1"}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--spec", str(spec),
                                 "--terms", "4")
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert "'N' must be at most 10000, got 1000000000" in err

    @pytest.mark.parametrize("content", [b"[" * 100000, b'{"family": "\xff"}'],
                             ids=["nested-too-deep", "not-utf-8"])
    def test_unreadable_file_exits_2(self, capsys, tmp_path, content):
        spec = tmp_path / "bad.json"
        spec.write_bytes(content)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "reduce", "--spec", str(spec))
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err.startswith(f"error: cannot read equation file {spec}: ")
        assert "Traceback" not in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "reduce", "--spec", "/no/such/file.json",
                             "--horizon", "4")
        assert code == 2


class TestConsoleScript:
    def test_subprocess_determinism(self):
        cmd = [sys.executable, "-m", "rowfinite.cli", "verify",
               "--family", "example3", "--horizon", "12", "--seed", "7"]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_package_runs_as_a_module(self):
        done = subprocess.run([sys.executable, "-m", "rowfinite", "--help"],
                              capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: rowfinite")

    def test_closed_stdout_exits_141(self):
        # 31 MB of output: far more than the pipe holds once it is closed
        cmd = [sys.executable, "-m", "rowfinite", "reduce", "--family",
               "example2", "--horizon", "300", "--format", "pretty"]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            assert proc.stdout.readline().startswith("reduced prefix")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        assert "Traceback" not in err

    def test_closed_stdout_mid_json_exits_141(self):
        # the document is written a row at a time: a write fails partway
        cmd = [sys.executable, "-m", "rowfinite", "reduce", "--family",
               "example2", "--horizon", "300"]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            assert proc.stdout.readline() == "{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        assert "Traceback" not in err


def terms_payload(values, first):
    return [{"index": i + first, "value": format_scalar(v)}
            for i, v in enumerate(values)]


def generic_json(payload):
    """What the generic encoder prints for ``payload``."""
    return json.dumps(payload, indent=2) + "\n"


class TestTermListJson:
    """The term lists of solve, fundamental and hess JSON are written
    directly; the bytes must be the generic encoder's."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.fractions()), st.integers(-10 ** 6, 10 ** 6))
    def test_writer_matches_the_generic_encoder(self, values, first):
        assert (f'{{\n  "terms": {cli._terms_json(values, first, 2)}\n}}'
                == json.dumps({"terms": terms_payload(values, first)}, indent=2))

    @pytest.mark.parametrize("first", [None, "-3", "5"])
    def test_solve(self, capsys, first):
        extra = [] if first is None else [f"--first-index={first}"]
        code, out, _ = run_cli(capsys, "solve", "--family", "example2",
                               "--horizon", "8", "--terms", "7",
                               "--free", "0=1/2,1=1,3=-2", *extra)
        assert code == 0
        state = run(build_family({"family": "example2"}), 8)
        values = solver.general_solution(state, None, {0: Fraction(1, 2), 1: 1, 3: -2}, 7)
        first = 0 if first is None else int(first)
        assert out == generic_json({"command": "solve", "first_index": first,
                                    "terms": terms_payload(values, first)})

    @pytest.mark.parametrize("first", [None, "-2"])
    def test_fundamental(self, capsys, first):
        extra = [] if first is None else [f"--first-index={first}"]
        code, out, _ = run_cli(capsys, "fundamental", "--family", "example3",
                               "--horizon", "13", "--terms", "9", *extra)
        assert code == 0
        state = run(build_family({"family": "example3"}), 13)
        sequences = solver.fundamental_set(state, 13, 9)
        assert len(sequences) > 1 and not state.certified
        first = 0 if first is None else int(first)
        assert out == generic_json({
            "command": "fundamental", "basis_kind": "schauder_prefix",
            "first_index": first,
            "sequences": [{"s": s + first, "terms": terms_payload(seq, first)}
                          for s, seq in sequences.items()]})

    def test_fundamental_without_sequences(self, capsys, tmp_path):
        # every column is a pivot length: no inaccessible column
        spec = tmp_path / "full.json"
        spec.write_text(json.dumps({"rows": [[[0, "1"]], [[0, "2"], [1, "3"]]]}))
        code, out, _ = run_cli(capsys, "fundamental", "--spec", str(spec),
                               "--horizon", "2", "--terms", "2")
        assert code == 0
        assert '"sequences": []' in out
        assert out == generic_json({"command": "fundamental",
                                    "basis_kind": "schauder_prefix",
                                    "first_index": 0, "sequences": []})

    @pytest.mark.parametrize("check", [False, True])
    def test_hess(self, capsys, tmp_path, check):
        obj = {"family": "second_order", "a": "n + 1", "b": "-1/2",
               "g": ["1", "0", "-1/3"] * 4}
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps(obj))
        extra = ["--verify-against-elimination"] if check else []
        code, out, _ = run_cli(capsys, "hess", "--spec", str(spec), "--terms", "10",
                               "--free", "0=1,1=-1/2", *extra)
        assert code == 0
        source = build_family(obj)
        g = [Fraction(v) for v in obj["g"]]
        values = general_prefix(source, g, [1, Fraction(-1, 2)], 10)
        payload = {"command": "hess", "index": 2,
                   "terms": terms_payload(values, 0)}
        if check:
            payload["elimination_match"] = True
        assert out == generic_json(payload)

    def test_values_past_the_int_string_limit(self, capsys, tmp_path):
        # y_n = (10^80 + n) y_{n-1}: y_59 has more than 4,300 digits, in its
        # numerator, or with a = 1/(10^80 + n) in its denominator
        spec = tmp_path / "big.json"
        for a in ("10^80 + n", "1/(10^80 + n)"):
            obj = {"family": "first_order", "a": a}
            spec.write_text(json.dumps(obj))
            code, out, _ = run_cli(capsys, "hess", "--spec", str(spec), "--terms", "60",
                                   "--free", "0=1")
            assert code == 0
            values = general_prefix(build_family(obj), None, [1], 60)
            assert len(format_scalar(values[-1])) > 4300
            assert out == generic_json({"command": "hess", "index": 1,
                                        "terms": terms_payload(values, 0)})
            code, out, _ = run_cli(capsys, "solve", "--spec", str(spec),
                                   "--horizon", "61", "--terms", "61",
                                   "--free", "0=1", "--first-index=-1")
            assert code == 0
            assert out == generic_json({"command": "solve", "first_index": -1,
                                        "terms": terms_payload([1] + values, -1)})
            code, out, _ = run_cli(capsys, "solve", "--spec", str(spec),
                                   "--horizon", "61", "--terms", "61",
                                   "--free", "0=1", "--format", "csv")
            assert code == 0
            assert out == ",".join(map(format_scalar, [1] + values)) + "\n"


class TestValuesStartingWithDash:
    G = "-1,0,0,0,0,0,0,0,0,0,0,0"

    def test_equals_form_prints_the_terms(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--family", "example3",
                               "--horizon", "12", "--terms", "3",
                               f"--g={self.G}", "--format", "csv")
        assert code == 0
        assert out == "0,-1,0\n"

    @pytest.mark.parametrize("flag,value", [("--g", G), ("--free", "-1=2")])
    def test_space_form_is_a_usage_error(self, flag, value):
        proc = subprocess.run(
            [sys.executable, "-m", "rowfinite.cli", "solve", "--family", "example3",
             "--horizon", "12", "--terms", "3", flag, value],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert not proc.stdout
        assert f"argument {flag}: expected one argument" in proc.stderr
        assert "Traceback" not in proc.stderr
