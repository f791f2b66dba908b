"""End-to-end command-line behaviour: output shape, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

import ccv.cli
from ccv.cli import entry

from conftest import VARIETIES

QUADRIC = str(VARIETIES / "quadric_p3.json")
FERMAT4 = str(VARIETIES / "fermat_cubic_p4.json")
TWO_QUADRICS = str(VARIETIES / "two_quadrics_p6.json")


def run_cli(capsys, *argv):
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_text_output(capsys):
    code, out, err = run_cli(capsys, "check", QUADRIC)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == (f"config: subcommand=check input={QUADRIC} "
                        f"point_cap=10000000")
    assert "variety: quadric-surface over rational in P^3" in lines
    assert ("singular-conic-connected: sum(d) <= (N + m)/2: 2 <= 2: HOLDS"
            in lines)
    assert "boundary-sharpness: sum(d) == (N + m + 1)/2: 2 == 5/2: FAILS" in lines
    assert lines[-1].startswith("caveat: ")


def test_check_json_envelope(capsys):
    code, out, _ = run_cli(capsys, "check", QUADRIC, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "check"
    assert doc["config"]["subcommand"] == "check"
    assert doc["config"]["point_cap"] == 10 ** 7
    assert doc["variety"]["name"] == "quadric-surface"
    names = [c["name"] for c in doc["report"]["criteria"]]
    assert names[0] == "singular-conic-connected"
    assert len(names) == 9


def test_json_output_is_byte_identical_across_runs(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "conics", QUADRIC,
                               "--x", "1,0,0,0", "--y", "0,0,0,1", "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    # keys are sorted, so the serialization itself is canonical
    doc = json.loads(outs[0])
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == outs[0]


def test_lines_text_output(capsys):
    code, out, _ = run_cli(capsys, "lines", QUADRIC, "--point", "1,0,0,0")
    assert code == 0
    assert "base point: [1:0:0:0]" in out
    assert "locus dimension: 1, degree: 2" in out
    assert "line family dimension a = 0" in out
    assert "family bound N - 1 - sum(d) = 0: met" in out
    assert "locus bound N - sum(d) = 1\n" in out
    assert "candidate [quadric-surface]" in out
    assert "consistent: yes" in out


def test_conics_text_output(capsys):
    code, out, _ = run_cli(capsys, "conics", QUADRIC,
                           "--x", "1,0,0,0", "--y", "0,0,0,1")
    assert code == 0
    assert "conic system: 3 generators, 1 shared equation(s)" in out
    assert "search mode: symbolic, status: finite" in out
    assert "vertex locus dimension: 0, degree: 2" in out
    assert "solutions listed: 2" in out
    assert ("vertex [0:1:0:0] (non-degenerate): line through x: "
            "x2 = x3 = 0; line through y: x0 = x2 = 0") in out
    assert "ideal degree matches formula: yes" in out


def test_conics_count_only_skips_enumeration(capsys):
    code, out, _ = run_cli(capsys, "conics", QUADRIC,
                           "--x", "1,0,0,0", "--y", "0,0,0,1", "--count-only")
    assert code == 0
    assert "solutions listed" not in out
    assert "search mode" not in out
    assert "count formula prod(d! (d-1)!): 2" in out


def test_conics_finite_field_mode(capsys):
    code, out, _ = run_cli(capsys, "conics", QUADRIC,
                           "--x", "1,0,0,0", "--y", "0,0,0,1", "--prime", "5")
    assert code == 0
    assert "over F_5" in out
    assert "search mode: finite-field, status: finite" in out
    assert "exhaustive scan of P^3(F_5)" in out
    assert "solutions listed: 2" in out


def test_conics_prime_mismatch_exits_2(capsys, tmp_path):
    spec = tmp_path / "quadric_f7.json"
    spec.write_text(json.dumps({"ambient_dim": 3, "field": {"prime": 7},
                                "equations": ["x0*x3 - x1*x2"]}))
    for extra in ((), ("--count-only",)):
        code, out, err = run_cli(capsys, "conics", str(spec), "--x", "1,0,0,0",
                                 "--y", "0,0,0,1", "--prime", "11", *extra)
        assert (code, out) == (2, "")
        assert "variety is over F_7, not F_11" in err


def test_conics_builds_the_system_and_basis_once(capsys, monkeypatch):
    import ccv.conics
    import ccv.groebner
    import ccv.solve
    calls = []
    inside = []

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls.append((label, tuple(inside)))
            inside.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    system = counted("system", ccv.conics.conic_system)
    for module in (ccv.conics, ccv.cli):
        monkeypatch.setattr(module, "conic_system", system)
    summary = ccv.groebner._leading_dimension_and_degree
    monkeypatch.setattr(ccv.groebner, "_leading_dimension_and_degree",
                        counted("basis", summary))
    monkeypatch.setattr(ccv.cli, "count_conics",
                        counted("count", ccv.conics.count_conics))
    # a symbolic search takes one basis, the solver's, before any root, and
    # the count reads its summary; a basis inside _affine_points is the
    # fiber's over a root
    engine = counted("engine", ccv.groebner._buchberger)
    for module in (ccv.groebner, ccv.solve):
        monkeypatch.setattr(module, "_buchberger", engine)
    for name in ("_affine_points", "_univariate_roots"):
        monkeypatch.setattr(ccv.solve, name,
                            counted(name, getattr(ccv.solve, name)))
    argv = ["conics", QUADRIC, "--x", "1,0,0,0", "--y", "0,0,0,1", "--json"]
    assert run_cli(capsys, *argv)[0] == 0
    labels = [label for label, _ in calls]
    assert [label for label, inside in calls if label != "count"
            and "_affine_points" not in inside][:3] == [
        "system", "engine", "_affine_points"]
    assert [call for call in calls if call[0] == "engine"
            and "_affine_points" not in call[1]] == [("engine", ())]
    assert labels.index("engine") < labels.index("_univariate_roots")
    assert "basis" not in labels and labels.count("system") == 1
    calls.clear()
    assert run_cli(capsys, *argv, "--prime", "5")[0] == 0
    assert [label for label, _ in calls if label == "system"] == ["system"]
    assert [call for call in calls if call[0] == "basis"] == [
        ("basis", ("count",))]


def test_a_search_that_breaks_bezout_raises(capsys, monkeypatch):
    # the solver's numerator shows the complete intersection of the three
    # conditions, so its degree must be 1 * 2 * 1; one more is refused
    import ccv.solve
    pole_order = ccv.solve._pole_order
    monkeypatch.setattr(ccv.solve, "_pole_order", lambda *args: (
        pole_order(*args)[0], pole_order(*args)[1] + 1))
    argv = ["conics", QUADRIC, "--x", "1,0,0,0", "--y", "0,0,0,1"]
    with pytest.raises(ArithmeticError, match="broke Bezout"):
        entry(argv)
    assert run_cli(capsys, *argv, "--count-only")[0] == 0


def test_conics_canonicalizes_input_points(capsys):
    code, out, _ = run_cli(capsys, "conics", QUADRIC,
                           "--x", "2,0,0,0", "--y", "0,0,0,-3")
    assert code == 0
    assert "x = [1:0:0:0]" in out
    assert "y = [0:0:0:1]" in out


def test_reused_parser_leaks_nothing_between_calls(capsys, monkeypatch):
    # entry keeps one parser per process; an option given to one call must
    # not reach the next call, which echoes its defaults
    assert ccv.cli._shared_parser() is ccv.cli._shared_parser()
    runs = [(["conics", QUADRIC, "--x", "1,0,0,0", "--y", "0,0,0,1",
              "--prime", "5", "--count-only", "--json"],
             ["conics", QUADRIC, "--x", "1,0,0,0", "--y", "0,0,0,1",
              "--json"]),
            (["oracle", QUADRIC, "--prime", "5", "--pairs", "3", "--json"],
             ["oracle", QUADRIC, "--prime", "5", "--json"])]
    seconds = []
    for first, second in runs:
        assert run_cli(capsys, *first)[0] == 0
        code, out, _ = run_cli(capsys, *second)
        assert code == 0
        seconds.append(out)
    conics, oracle = (json.loads(out)["config"] for out in seconds)
    assert (conics["prime"], conics["count_only"]) == (None, False)
    assert oracle["pairs"] == 50
    monkeypatch.setattr(ccv.cli, "_shared_parser", ccv.cli.build_arg_parser)
    assert [run_cli(capsys, *second)[1] for _, second in runs] == seconds


def test_oracle_frozen_census(capsys):
    code, out, _ = run_cli(capsys, "oracle", QUADRIC,
                           "--prime", "5", "--pairs", "50", "--seed", "1")
    assert code == 0
    assert "variety points over F_5: 36" in out
    assert "pairs tested: 50 (seed 1)" in out
    assert "pairs connected: 50" in out
    assert "connected fraction: 1" in out
    assert "non-degenerate fraction: 31/50" in out
    assert "0 non-degenerate vertex(es): 19 pair(s)" in out
    assert "2 non-degenerate vertex(es): 31 pair(s)" in out


def test_classify_text_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "6", "--c", "3",
                           "--a", "3")
    assert code == 0
    assert "classification inputs: n = 6, c = 3, a = 3" in out
    assert "candidate [grassmannian-lines-p4]" in out
    assert "consistent: yes" in out


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "10", "--c", "5",
                           "--a", "6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [c["key"] for c in doc["report"]["candidates"]] == [
        "spinor-tenfold"]
    assert doc["report"]["consistent"] is True


def test_invalid_inputs_exit_2(capsys, tmp_path):
    specs = {"over_f5": {"ambient_dim": 3, "field": {"prime": 5},
                         "equations": ["x0*x3 - x1*x2"]},
             "number": 3, "null": None,
             "list_prime": {"ambient_dim": 3, "field": {"prime": [5]},
                            "equations": ["x0*x3 - x1*x2"]}}
    for name, data in specs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    cases = [
        ("check", str(VARIETIES / "no_such_file.json")),
        ("lines", QUADRIC, "--point", "1,0,0"),
        ("lines", QUADRIC, "--point", "1,1,1,0"),
        ("conics", QUADRIC, "--x", "1,0,0,0", "--y", "1,0,0,0"),
        ("conics", QUADRIC, "--x", "1,0,0,0", "--y", "2,0,0,0"),
        ("conics", QUADRIC, "--x", "1,1,1,0", "--y", "0,0,0,1"),
        ("classify", "--n", "0", "--c", "1", "--a", "0"),
        ("oracle", QUADRIC, "--prime", "6"),
        ("lines", QUADRIC, "--point", "1/0,0,0,0"),
        ("conics", str(tmp_path / "over_f5.json"),
         "--x", "1/5,0,0,0", "--y", "0,0,0,1"),
        ("check", str(tmp_path / "number.json")),
        ("check", str(tmp_path / "null.json")),
        ("check", str(tmp_path / "list_prime.json")),
        # an exponent would expand into a huge integer before any check
        ("lines", QUADRIC, "--point", "1,0,0,1e99999999"),
        ("lines", QUADRIC, "--point", "0e99999999,1,0,0"),
        # coordinates take ASCII digits only, as equations do
        ("lines", QUADRIC, "--point", "\uff11,0,0,0"),
        ("lines", QUADRIC, "--point", "\u0661,0,0,0"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: "), argv
        assert out == ""


def test_integer_options_take_ascii_digits_only(capsys, monkeypatch):
    """All nine integer options and CCV_POINT_CAP exit 2 on full-width and
    Arabic-Indic digits and on "_" separators, which int() alone takes."""
    options = [("conics", QUADRIC, "--x", "1,0,0,0", "--y", "0,0,0,1",
                "--count-only", "--prime"),
               ("oracle", QUADRIC, "--prime"),
               ("oracle", QUADRIC, "--prime", "5", "--pairs"),
               ("oracle", QUADRIC, "--prime", "5", "--seed")]
    classify = {"--n": "6", "--c": "3", "--a": "2"}
    for name in ("--n", "--c", "--a", "--delta", "--index"):
        rest = [item for key, value in classify.items() if key != name
                for item in (key, value)]
        options.append(("classify", *rest, name))
    for bad in ("\uff15", "\u0665", "1_1"):
        for argv in options:
            with pytest.raises(SystemExit) as exit_:
                entry([*argv, bad])
            assert exit_.value.code == 2, (argv, bad)
            err = capsys.readouterr().err
            assert f"argument {argv[-1]}: " in err
            assert "not an integer in ASCII digits" in err
        monkeypatch.setenv("CCV_POINT_CAP", bad)
        code, out, err = run_cli(capsys, "check", QUADRIC)
        assert (code, out) == (2, ""), bad
        assert "CCV_POINT_CAP" in err
    monkeypatch.setenv("CCV_POINT_CAP", " +500 ")
    code, out, _ = run_cli(capsys, "oracle", QUADRIC, "--prime", " 5 ",
                           "--pairs", "+2")
    assert code == 0
    assert "prime=5 pairs=2 seed=0 point_cap=500" in out.splitlines()[0]


def test_refusals_exit_3(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "conics", FERMAT4,
                           "--x", "1,-1,0,0,0", "--y", "0,1,-1,0,0",
                           "--prime", "2")
    assert code == 3
    assert err.startswith("refused: ")
    assert "below the top degree 3" in err

    monkeypatch.setenv("CCV_POINT_CAP", "10")
    code, _, err = run_cli(capsys, "oracle", QUADRIC, "--prime", "5")
    assert code == 3
    assert "over the cap of 10" in err


def test_exponent_overflow_exits_3(capsys, tmp_path):
    # the dimension needs a grevlex basis whose exponents outgrow the
    # packed monomial fields: refused, never answered
    spec = tmp_path / "binomials.json"
    spec.write_text(json.dumps({
        "ambient_dim": 3, "field": "rational", "smooth": True,
        "scheme_theoretic": True,
        "equations": ["x0^999999*x1 - x2^1000000",
                      "x0*x1^999999 - x3^1000000"]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check", str(spec), "--json")
    assert (code, out) == (3, "")
    assert err.startswith("refused: ")
    assert "packed monomial fields" in err
    assert time.perf_counter() - start < 5


def test_symbolic_search_over_fp_respects_the_point_cap(capsys, monkeypatch,
                                                         tmp_path):
    # the univariate root scan visits the 102 points of P^1(F_101)
    spec = tmp_path / "quadric_f101.json"
    spec.write_text(json.dumps({"ambient_dim": 3, "field": {"prime": 101},
                                "equations": ["x0*x3 - x1*x2"]}))
    argv = ("conics", str(spec), "--x", "1,0,0,0", "--y", "0,0,0,1")
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setenv("CCV_POINT_CAP", "50")
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert "P^1(F_101) has 102 points, over the cap of 50" in err


def test_huge_prime_is_refused_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "conics", FERMAT4, "--x", "1,-1,0,0,0",
                             "--y", "0,1,-1,0,0", "--prime",
                             str(2**61 - 1), "--count-only")
    assert (code, out) == (2, "")
    assert "below 2^31" in err
    assert time.perf_counter() - start < 1


def test_point_cap_env_is_validated(capsys, monkeypatch):
    monkeypatch.setenv("CCV_POINT_CAP", "many")
    code, _, err = run_cli(capsys, "check", QUADRIC)
    assert code == 2
    assert "CCV_POINT_CAP" in err
    monkeypatch.setenv("CCV_POINT_CAP", "-4")
    code, _, err = run_cli(capsys, "check", QUADRIC)
    assert code == 2


def test_point_cap_env_is_echoed(capsys, monkeypatch):
    monkeypatch.setenv("CCV_POINT_CAP", "500")
    code, out, _ = run_cli(capsys, "check", QUADRIC)
    assert code == 0
    assert "point_cap=500" in out.splitlines()[0]


def test_module_runs_as_a_subprocess():
    env = dict(os.environ)
    src = str(VARIETIES.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "ccv.cli", "check", QUADRIC, "--json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "check"


@pytest.mark.parametrize("launch", [
    ["-m", "ccv.cli"],
    ["-c", "import sys; from ccv.cli import entry; sys.exit(entry())"],
], ids=["module", "console-script"])
def test_a_closed_reader_ends_the_run_without_a_traceback(launch):
    # `ccv conics ... | head -1` with the reader gone before the report
    env = dict(os.environ)
    src = str(VARIETIES.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, *launch, "conics", QUADRIC, "--x", "1,0,0,0",
             "--y", "0,0,0,1"], stdout=write, stderr=subprocess.PIPE,
            text=True, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_empty_solution_set_is_success(capsys, tmp_path):
    spec = tmp_path / "conic.json"
    spec.write_text(json.dumps({
        "name": "plane-conic",
        "ambient_dim": 2,
        "equations": ["x0*x2 - x1^2"],
    }))
    code, out, _ = run_cli(capsys, "conics", str(spec),
                           "--x", "1,0,0", "--y", "0,0,1")
    assert code == 0
    assert "status: empty" in out
    assert "solutions listed: 0" in out
