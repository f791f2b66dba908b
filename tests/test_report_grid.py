"""Digests of the criteria engine and the classifier over exhaustive grids.

Each slice hashes ``json.dumps(report.to_json(), sort_keys=True)`` for
every input in it, so any change of a verdict, value, note, finding or
candidate changes the slice's digest.

- ``criteria_report``: P^N for N = 1..9, m = 1..min(4, N + 1) equations
  x_i^(d_i) with nonincreasing degrees from 4..1, all four combinations
  of the smooth and scheme-theoretic flags, and claimed_dim unset or each
  value in 1..N-1.  One digest per N.
- ``classify_line_family``: n = 1..11, c = 1..6, a = 0..12, delta unset or
  0..6, index unset or 1..12.  One digest per n.

Together the grids run every statement of both functions except their
input-validation raises.  To print fresh digests after an intended change:

    PYTHONPATH=src python tests/test_report_grid.py
"""

import hashlib
import json
from itertools import combinations_with_replacement

import pytest

from ccv import (QQ, Polynomial, VarietySpec, classify_line_family,
                 criteria_report)

FLAGS = ((False, False), (False, True), (True, False), (True, True))


def _digest(reports) -> str:
    h = hashlib.sha256()
    for report in reports:
        h.update(json.dumps(report.to_json(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _criteria_reports(N: int):
    for m in range(1, min(4, N + 1) + 1):
        for degrees in combinations_with_replacement((4, 3, 2, 1), m):
            equations = tuple(Polynomial.variable(i, N + 1, QQ) ** d
                              for i, d in enumerate(degrees))
            for smooth, scheme in FLAGS:
                for claimed in (None, *range(1, N)):
                    yield criteria_report(VarietySpec(
                        name="grid", ambient_dim=N, field=QQ,
                        equations=equations, claimed_dim=claimed,
                        scheme_theoretic=scheme, smooth=smooth))


def _classify_reports(n: int):
    for c in range(1, 7):
        for a in range(13):
            for delta in (None, *range(7)):
                for index in (None, *range(1, 13)):
                    yield classify_line_family(n, c, a, delta=delta,
                                               index=index)


CRITERIA_DIGESTS = {
    1: "fb79d006825c562b30cc5e0b3bb0cb0f82ec6e1ef020c70e4aa49ff823a9f726",
    2: "09d2cd6fa26b4116654ac9bb389bd842a68f6f3baea7d62384c92193e61120b7",
    3: "7158c0f40df7b002f87a52b0545257c7653459c0f5b4b35d6310c718f10d8363",
    4: "324f020a2fe173469fbe4b5c270927dabebbb25b88594e377bf5e0cf05b87b8f",
    5: "4e73ce4d4f3f46f7810254a3f68e1b7b3304efd3c5788c571a5becc50c14a43f",
    6: "81f6c4dc3adbd74b350da6c22b874c5f4d812ed81221abfb24e47af29dd01eec",
    7: "ffbe226c52a5143c724bc31a5e86c1b7ced6b9bd743575ba959c4259010346c0",
    8: "d4e970c844d62825c3275831bd46c63c8a814fee248b1c130edd2d1061b04b6f",
    9: "9960c9858ef4f54ceb026ddae3be5c32ea53d369ec1389b9fed061d72e38a3c7",
}

CLASSIFY_DIGESTS = {
    1: "a13ea7a9c6eab1c01048a4c067997dc777df3405507422fd61b307f1d01618db",
    2: "c03647752f4199ac4926cc047802db814fbbb2d6c637080518c836c99a35596f",
    3: "c5883b16d8d80dd19a371eb0d2a86dec143a8316fb0ea52212631935335eb4fb",
    4: "6a14fd7171e1ef3e8a46db1f94b2caed98475700a65bab2b32b96506cf7aa7fc",
    5: "93ab84ab553df0b4ef3ea4b3a0d6fbd97fe002a9aec778fca1c3ca8984df1509",
    6: "11f7cdab5f5dd19db4d37c4a22d1d8c0d2fd634ba4ac0c0698940d49639edd59",
    7: "7976e68b615ef412c7987a726b22b64e87c5a0594e03d9e8004222d849d2954d",
    8: "f1329995a057ef82b7984737d9a426a138ab433e01220fc3c602eb9e9c0f36fd",
    9: "01a60cb83cbc10ca74b76cffe8b220310b536aaba2cd98f86b0f761d440b88ca",
    10: "e41b111139551bea51fa20791fa387f14ed8f0eea2448e4ce37944485eccf960",
    11: "dcd42f4e40caab30d9162c85e7f6dfd74c315b99b3691d04573fb8197035eb38",
}


@pytest.mark.parametrize("N", sorted(CRITERIA_DIGESTS))
def test_criteria_report_grid(N):
    assert _digest(_criteria_reports(N)) == CRITERIA_DIGESTS[N]


@pytest.mark.parametrize("n", sorted(CLASSIFY_DIGESTS))
def test_classify_line_family_grid(n):
    assert _digest(_classify_reports(n)) == CLASSIFY_DIGESTS[n]


if __name__ == "__main__":
    print("CRITERIA_DIGESTS = {")
    for N in range(1, 10):
        print(f'    {N}: "{_digest(_criteria_reports(N))}",')
    print("}\n\nCLASSIFY_DIGESTS = {")
    for n in range(1, 12):
        print(f'    {n}: "{_digest(_classify_reports(n))}",')
    print("}")
