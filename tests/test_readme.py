"""The README's examples run as written and print what it says they print."""

import ast
import json
import re
import shlex
from pathlib import Path

from rowfinite import FiniteRow, cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_library_block_runs():
    # each bare expression's value, keyed by its text, for its comment
    (block,) = code_blocks("python")
    namespace, said = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            said[ast.get_source_segment(block, stmt)] = eval(
                compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert said["checks.transforms_reproduce(rows, state.transform_rows(), state.h_rows)"] is True
    assert said["[Q[w] for w in state.w_set]"] == [FiniteRow([(0, -2), (1, 1)])]
    sequences = said["fundamental_set(state, 8, 7)"]
    assert list(sequences) == [0, 1, 3] and sequences[1][:5] == (0, 1, 2, 0, -24)
    assert said["state.certified"] is False
    assert said["general_solution(state, None, {1: 1}, 7)"] == [0, 1, 2, 0, -24, -192, -1344]
    particular = said["general_solution(run(rec, 5), [1]*5, {}, 6)"]
    assert particular == [0, 1, 3, 7, 15, 31]
    assert said["general_prefix(rec, [1]*5, [Fraction(0)], 5)"] == particular[1:]
    assert said["general_prefix(rec, None, [Fraction(1)], 5)"] == [2, 4, 8, 16, 32]


def test_command_lines_print_their_results(capsys, tmp_path, monkeypatch):
    (block,) = [b for b in code_blocks("sh") if "rowfinite " in b]
    for name, content in re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$",
                                    block, re.M | re.S):
        (tmp_path / name).write_text(content, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    ran = checked = 0
    for paragraph in block.split("\n\n"):
        # each command exits with the code its paragraph's "(exit N)" gives, or 0
        said = re.search(r"\(exit (\d+)\)", paragraph)
        code = int(said[1]) if said else 0
        lines = paragraph.splitlines()
        for line, result in zip(lines, lines[1:] + [""]):
            if not line.startswith("rowfinite "):
                continue
            assert cli.main(shlex.split(line)[1:]) == code, line
            out = capsys.readouterr().out
            ran += 1
            if result.startswith("# -> "):
                # "# -> a and b" stands for the output lines a and b
                assert " and ".join(out.splitlines()) == result[5:]
                checked += 1
    assert (ran, checked) == (6, 2)


def test_file_format_examples_reduce(tmp_path):
    blocks = code_blocks("json")
    assert len(blocks) == 2
    for i, block in enumerate(blocks):
        spec = tmp_path / f"spec{i}.json"
        spec.write_text(block, encoding="utf-8")
        rows = json.loads(block).get("rows")   # an explicit matrix: reduce all its rows
        horizon = ["--horizon", str(len(rows))] if rows is not None else []
        assert cli.main(["reduce", "--spec", str(spec), *horizon]) == 0
