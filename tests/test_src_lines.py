"""tools/src_lines.py, the line count of a source tree, run in this process."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# each line of a small module with the kind the tool's docstring gives it
SAMPLE = [
    ('"""A module docstring', "docstring"),
    ("", "docstring"),
    ('over three lines."""', "docstring"),
    ("", "blank"),
    ("import os", "code"),
    ("    ", "blank"),
    ("# a comment and nothing else", "comment"),
    ("", "blank"),
    ("", "blank"),
    ("class Spec:", "code"),
    ('    """A class docstring."""', "docstring"),
    ("", "blank"),
    ("    def path(self):", "code"),
    ('        """A function', "docstring"),
    ('        docstring."""', "docstring"),
    ('        text = """a string in code,', "code"),
    ("", "code"),
    ('over three lines"""', "code"),
    ("        # an indented comment", "comment"),
    ("        return os.path.join(text)  # a trailing comment", "code"),
]


def test_each_line_gets_its_kind(tmp_path):
    tool = _tool()
    path = tmp_path / "sample.py"
    path.write_text("".join(line + "\n" for line, _ in SAMPLE))
    kinds = [kind for _, kind in SAMPLE]
    expected = {kind: kinds.count(kind) for kind in tool.KINDS[1:]}
    assert tool.count_lines(path) == {"physical": len(SAMPLE), **expected}
    tree = ast.parse(path.read_text())
    assert tool._docstring_lines(tree) == {
        n for n, kind in enumerate(kinds, 1) if kind == "docstring"}


def test_module_rows_sum_to_the_total(capsys):
    tool = _tool()
    assert tool.main([str(ROOT / "src" / "ccv")]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", *tool.KINDS]
    assert len(rows) == len(list((ROOT / "src" / "ccv").glob("*.py")))
    table = [[int(x.replace(",", "")) for x in row.split()[1:]]
             for row in rows]
    assert total.split()[0] == "total"
    assert [int(x.replace(",", "")) for x in total.split()[1:]] == [
        sum(column) for column in zip(*table)]
    for physical, *parts in table:  # every line has exactly one kind
        assert physical == sum(parts)
