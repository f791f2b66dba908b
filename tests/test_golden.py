"""Byte-for-byte golden outputs of the command line.

Each case runs ``ccv`` in-process from the repository root with relative
paths and compares its exit code and standard output with the file
``tests/golden/<name>.out``, whose first line is the exit code.  To
rewrite the files after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from ccv.cli import entry

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

E0_P6, E6_P6 = "1,0,0,0,0,0,0", "0,0,0,0,0,0,1"
SPECS = ("quadric_p3", "quadric3_p4", "fermat_cubic_p4", "fermat_cubic_p5",
         "two_quadrics_p6", "g14_p9")


def _spec(name: str) -> str:
    return f"varieties/{name}.json"


# name -> (argv, CCV_POINT_CAP or None)
CASES = {f"check-{name}": (("check", _spec(name), "--json"), None)
         for name in SPECS}
CASES.update({
    "lines-quadric_p3": (("lines", _spec("quadric_p3"), "--point",
                          "1,0,0,0", "--json"), None),
    "lines-quadric3_p4": (("lines", _spec("quadric3_p4"), "--point",
                           "1,0,0,0,0", "--json"), None),
    "conics-quadric_p3": (("conics", _spec("quadric_p3"), "--x", "1,0,0,0",
                           "--y", "0,0,0,1", "--json"), None),
    "conics-two_quadrics_p6": (("conics", _spec("two_quadrics_p6"),
                                "--x", E0_P6, "--y", E6_P6, "--json"), None),
    "conics-two_quadrics_p6-count": (("conics", _spec("two_quadrics_p6"),
                                      "--x", E0_P6, "--y", E6_P6,
                                      "--count-only", "--json"), None),
    "conics-two_quadrics_p6-prime5": (("conics", _spec("two_quadrics_p6"),
                                       "--x", E0_P6, "--y", E6_P6,
                                       "--prime", "5", "--json"), None),
    "conics-fermat_cubic_p5-count": (("conics", _spec("fermat_cubic_p5"),
                                      "--x", "3,4,5,-6,0,0",
                                      "--y", "0,0,3,4,5,-6",
                                      "--count-only", "--json"), None),
    "oracle-quadric_p3": (("oracle", _spec("quadric_p3"), "--prime", "5",
                           "--pairs", "50", "--seed", "1", "--json"), None),
    "oracle-fermat_cubic_p4": (("oracle", _spec("fermat_cubic_p4"),
                                "--prime", "7", "--json"), None),
    "oracle-two_quadrics_p6": (("oracle", _spec("two_quadrics_p6"),
                                "--prime", "5", "--pairs", "16", "--json"),
                               None),
    "refuse-oracle-prime-too-small": (("oracle", _spec("fermat_cubic_p4"),
                                       "--prime", "2", "--json"), None),
    "refuse-conics-prime-too-small": (("conics", _spec("fermat_cubic_p4"),
                                       "--x", "1,1,0,0,0", "--y", "0,0,1,1,0",
                                       "--prime", "2", "--json"), None),
    "refuse-oracle-point-cap": (("oracle", _spec("quadric_p3"), "--prime",
                                 "5", "--json"), "100"),
    "refuse-conics-point-cap": (("conics", _spec("quadric_p3"), "--x",
                                 "1,0,0,0", "--y", "0,0,0,1", "--prime", "5",
                                 "--json"), "100"),
    # the README examples, as text
    "readme-check": (("check", _spec("quadric_p3")), None),
    "readme-lines": (("lines", _spec("quadric3_p4"), "--point",
                      "1,0,0,0,0"), None),
    "readme-conics": (("conics", _spec("quadric_p3"), "--x", "1,0,0,0",
                       "--y", "0,0,0,1"), None),
    "readme-oracle": (("oracle", _spec("quadric_p3"), "--prime", "5",
                       "--pairs", "50", "--seed", "1"), None),
    "readme-classify": (("classify", "--n", "6", "--c", "3", "--a", "3"),
                        None),
})


def run_case(name: str) -> str:
    """Exit code and standard output of one case, as the golden file holds
    them."""
    argv, cap = CASES[name]
    saved_cwd, saved_cap = os.getcwd(), os.environ.pop("CCV_POINT_CAP", None)
    out = io.StringIO()
    try:
        os.chdir(ROOT)
        if cap is not None:
            os.environ["CCV_POINT_CAP"] = cap
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = entry(list(argv))
    finally:
        os.chdir(saved_cwd)
        os.environ.pop("CCV_POINT_CAP", None)
        if saved_cap is not None:
            os.environ["CCV_POINT_CAP"] = saved_cap
    return f"{code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert run_case(name) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.out").write_text(run_case(case), encoding="utf-8")
        print(f"wrote {case}")
    sys.exit(0)
