"""tools/trace_lines.py on a toy module with one untaken branch."""

import importlib.util
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TOY = '''\
"""A toy module."""


def sign(x):
    """-1, 0 or 1."""
    if x < 0:
        return -1
    return [1, 0][not x]


class Box:
    def doubled(self, values):
        return [2 * v
                for v in values]
'''


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_one_untaken_line_is_reported(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    start = time.perf_counter()
    tool = _load(ROOT / "tools" / "trace_lines.py", "trace_lines")
    (tmp_path / "toy.py").write_text(TOY)

    def run():
        toy = _load(tmp_path / "toy.py", "toy")
        return toy.sign(3), toy.sign(0), toy.Box().doubled([1, 2])

    result, ran = tool.trace(run, tmp_path)
    assert result == (1, 0, [2, 4])
    path = str((tmp_path / "toy.py").resolve())
    assert tool.missed(tmp_path, ran) == {path: [(7, "return -1")]}
    assert time.perf_counter() - start < 2
