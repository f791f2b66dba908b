"""tools/rung_run.py's check mode on a table of one small rung."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# full conics over F_32003 on the seed-1 [2,2] rung in P^6
SHA256 = "2f1f5593a50adb3aaa6c81fdf8bd11db6ff013b80241513ccc1c4c6c40cfc8fc"


def _tool():
    spec = importlib.util.spec_from_file_location(
        "rung_run", ROOT / "tools" / "rung_run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table(tmp_path, sha256):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"jobs": [
        {"degrees": [2, 2], "sha256": sha256},
        {"degrees": [2, 2], "long": True, "sha256": "0" * 64}]}))
    return path


def test_the_check_passes_on_the_pinned_hash(tmp_path, capsys):
    # the long job, whose hash is wrong, is skipped without --long
    assert _tool().check(_table(tmp_path, SHA256), ROOT) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("ci-2-2-p6-s1 F32003: ")
    assert lines[0].endswith(" MB, match")


def test_the_check_fails_on_a_wrong_hash(tmp_path, capsys):
    wrong = SHA256[::-1]
    assert _tool().check(_table(tmp_path, wrong), ROOT) == 1
    out = capsys.readouterr().out
    assert f"MISMATCH (exit 0, sha256 {SHA256})" in out
