"""The README's examples run as written and print what it says they print."""

import json
import re
import shlex
from pathlib import Path

from rowfinite import cli, equation_from_obj

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_library_block_runs():
    (block,) = code_blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_command_lines_print_their_results(capsys, tmp_path, monkeypatch):
    (block,) = [b for b in code_blocks("sh") if "rowfinite " in b]
    for name, content in re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$",
                                    block, re.M | re.S):
        (tmp_path / name).write_text(content, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    checked = 0
    for line, result in zip(lines, lines[1:]):
        if line.startswith("rowfinite ") and result.startswith("# -> "):
            assert cli.main(shlex.split(line)[1:]) == 0
            # "# -> a and b" stands for the output lines a and b
            assert " and ".join(capsys.readouterr().out.splitlines()) == result[5:]
            checked += 1
    assert checked == 2


def test_file_format_examples_reduce(tmp_path):
    blocks = code_blocks("json")
    assert len(blocks) == 2
    for i, block in enumerate(blocks):
        spec = tmp_path / f"spec{i}.json"
        spec.write_text(block, encoding="utf-8")
        rows = equation_from_obj(json.loads(block)).source.row_count
        horizon = ["--horizon", str(rows)] if rows is not None else []
        assert cli.main(["reduce", "--spec", str(spec), *horizon]) == 0
