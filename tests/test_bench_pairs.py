"""tools/bench_pairs.py's run order and summary, on synthetic runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_first_side_alternates_by_pair():
    plan = _tool().schedule(3, ["a", "b"], 40)
    assert plan == [
        (0, 40, "a", "parent"), (0, 40, "a", "change"),
        (0, 40, "b", "parent"), (0, 40, "b", "change"),
        (1, 41, "a", "change"), (1, 41, "a", "parent"),
        (1, 41, "b", "change"), (1, 41, "b", "parent"),
        (2, 42, "a", "parent"), (2, 42, "a", "change"),
        (2, 42, "b", "parent"), (2, 42, "b", "change")]


def _final(wall, rss, correct=True):
    return {"correct": correct, "attempted": 4, "failed": 1 - correct,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "ok_frac": {"value": rss, "unit": "frac"}}}


def test_the_summary_of_synthetic_pairs():
    tool = _tool()
    walls = {"parent": [1.0, 1.2, 1.1, 1.4, 1.3],
             "change": [0.9, 1.0, 1.2, 1.0, 1.1]}
    order = []

    def run(side, workload, seed):
        order.append((side, seed))
        return _final(walls[side][seed - 7], 1.0)

    runs = tool.collect(tool.schedule(5, ["w"], 7), run)
    assert order[:4] == [("parent", 7), ("change", 7), ("change", 8),
                         ("parent", 8)]
    assert [r["first"] for r in runs["parent"]["w"]] == [
        "parent", "change"] * 2 + ["parent"]
    assert [r["seed"] for r in runs["change"]["w"]] == [7, 8, 9, 10, 11]
    summary = tool.summarise(runs, [("wall_s", "lower"),
                                    ("ok_frac", "higher")])["w"]
    wall = summary["wall_s"]
    assert (wall["parent_median"], wall["change_median"]) == (1.2, 1.0)
    # inclusive quartiles of 1.0 1.1 1.2 1.3 1.4 and of 0.9 1.0 1.0 1.1 1.2
    assert abs(wall["parent_q1"] - 1.1) < 1e-12
    assert abs(wall["parent_q3"] - 1.3) < 1e-12
    assert abs(wall["parent_iqr"] - 0.2) < 1e-12
    assert (wall["change_q1"], wall["change_q3"]) == (1.0, 1.1)
    assert abs(wall["change_vs_parent"] - (1.0 / 1.2 - 1)) < 1e-12
    assert (wall["pairs_won"], wall["pairs"]) == (4, 5)  # 1.2 > 1.1 loses
    assert (summary["ok_frac"]["pairs_won"], summary["ok"]) == (0, True)


def test_a_failed_or_incorrect_run_fails_the_workload():
    tool = _tool()
    finals = iter([_final(1.0, 1.0), None, _final(1.0, 1.0),
                   _final(0.9, 0.5, correct=False)])
    runs = tool.collect(tool.schedule(2, ["w"], 1),
                        lambda *_: next(finals))
    assert runs["change"]["w"][0] == {"correct": False, "seed": 1,
                                      "first": "parent"}
    summary = tool.summarise(runs, [("wall_s", "lower")])["w"]
    assert summary == {"ok": False}  # no pair has two good runs
