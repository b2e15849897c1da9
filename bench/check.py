"""Exact checks of hgnum's outputs against a reference made outside the timed
run.

``reference.json`` holds, for every (family, N) the workloads can ask for, a
short digest of each value's exact ``p/q`` text for n = 0..200.  It was written
once by ``make_reference.py``, which validated the values against oracles
outside hgnum, so a check never trusts the code it is timing.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


REFERENCE_PATH = Path(__file__).with_name("reference.json")
DIGEST_BYTES = 6
DIGEST_CHARS = 2 * DIGEST_BYTES

CSV_HEADER = "family,N,n,method,value"

# verify suites that run once per N, and the N they run for
PER_N_SUITES = {
    suite: range(1, 7)
    for suite in (
        "sumprod-pair", "sumprod-pair-comp", "sumprod-trinomial", "sumprod-trinomial-comp",
    )
}
PER_N_SUITES["series-identities"] = range(1, 5)
RANGE_FROM_ZERO = {"tangent", "tangent-complex", "tan-maclaurin"}


def digest(value: str) -> str:
    return hashlib.blake2b(value.encode(), digest_size=DIGEST_BYTES).hexdigest()


class Reference:
    """Digests of the exact values, looked up by (family, N, n)."""

    def __init__(self, data: dict) -> None:
        self.max_n = data["max_n"]
        self.digests = data["digests"]

    @classmethod
    def load(cls, path: Path = REFERENCE_PATH) -> "Reference":
        with open(path) as fh:
            return cls(json.load(fh))

    def digest(self, family: str, N: int, n: int) -> str | None:
        column = self.digests.get(family, {}).get(str(N))
        if column is None or not 0 <= n <= self.max_n:
            return None
        return column[n * DIGEST_CHARS:(n + 1) * DIGEST_CHARS]


def expected_reports(suite: str, max_n: int) -> list[tuple[str, str]]:
    """(identity, range) of each report ``verify --suite suite --max-n max_n``
    must print, in order."""
    if suite in PER_N_SUITES:
        rng = f"order {max_n}" if suite == "series-identities" else f"0 <= n <= {max_n}"
        return [(f"{suite}(N={N})", rng) for N in PER_N_SUITES[suite]]
    low = 0 if suite in RANGE_FROM_ZERO else 1
    return [(suite, f"{low} <= n <= {max_n}")]


def check_response(request: dict, response: dict, reference: Reference) -> str | None:
    """None when the response is exactly right, else the reason it is not."""
    if response.get("error"):
        return f"raised {response['error']}"
    if response.get("exit") != 0:
        return f"exit code {response.get('exit')}: {response.get('stderr', '')[:200]}"
    if response.get("stderr"):
        return f"unexpected stderr: {response['stderr'][:200]}"
    checker = {"compute": _check_compute, "verify": _check_verify, "table1": _check_table1}
    return checker[request["kind"]](request, response["stdout"], reference)


def _check_compute(request: dict, text: str, reference: Reference) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "missing CSV header"
    family, N = request["family"], request["N"]
    expected = [(n, m) for n in range(request["max_n"] + 1) for m in request["methods"]]
    if len(lines) - 1 != len(expected):
        return f"{len(lines) - 1} records, expected {len(expected)}"
    for line, (n, method) in zip(lines[1:], expected):
        fields = line.split(",")
        if fields[:4] != [family, str(N), str(n), method] or len(fields) != 5:
            return f"record {line[:80]!r}, expected {family},{N},{n},{method},..."
        want = reference.digest(family, N, n)
        if want is None:
            return f"no reference value for {family} N={N} n={n}"
        if digest(fields[4]) != want:
            return f"wrong value for {family} N={N} n={n} method={method}"
    return None


def _check_verify(request: dict, text: str, reference: Reference) -> str | None:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if payload.get("passed") is not True:
        return "verify did not pass"
    suite = request["suite"]
    want = expected_reports(suite, request["max_n"])
    got = payload.get("suites", [])
    if len(got) != len(want):
        return f"{len(got)} reports, expected {len(want)}"
    for report, (identity, rng) in zip(got, want):
        seen = (report.get("suite"), report.get("identity"), report.get("range"))
        if seen != (suite, identity, rng) or report.get("passed") is not True:
            return f"report {seen} passed={report.get('passed')}, expected {(suite, identity, rng)}"
    return None


def _check_table1(request: dict, text: str, reference: Reference) -> str | None:
    lines = text.split("\n")
    evens = range(0, 15, 2)
    if lines[0] != "\t".join(["n"] + [str(n) for n in evens]):
        return "wrong table1 header"
    rows = lines[1:-1]
    if len(rows) != 7 or lines[-1] != "":
        return f"{len(rows)} table1 rows, expected 7"
    for N, row in enumerate(rows):
        cells = row.split("\t")
        if cells[0] != f"E_{N}" or len(cells) != 1 + len(evens):
            return f"malformed table1 row {N}"
        for n, value in zip(evens, cells[1:]):
            if digest(value) != reference.digest("hg-euler", N, n):
                return f"wrong table1 value at N={N} n={n}"
    return None

