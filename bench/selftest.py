"""Self-tests of the benchmark (not part of the package's test suite):

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from check import Reference, check_response  # noqa: E402
from hgnum.cli import main as cli_main  # noqa: E402


@pytest.fixture(scope="module")
def reference() -> Reference:
    return Reference.load()


def _respond(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return {"exit": code, "error": None, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generation_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 11) == workloads.generate(workload, 11)
    assert workloads.generate(workload, 11) != workloads.generate(workload, 12)


@pytest.mark.parametrize("seed", range(20))
def test_tables_never_repeats_a_family_and_N(seed):
    pairs = [(r["family"], r["N"]) for r in workloads.generate("tables", seed)]
    assert len(pairs) == len(set(pairs)) == 98


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_each_run_holds_at_least_100_requests(workload):
    # a timed run makes at least MIN_PASSES passes over the list
    assert len(workloads.generate(workload, 3)) * run.MIN_PASSES >= 100


@pytest.mark.parametrize("seed", range(5))
def test_every_request_has_a_reference(reference, seed):
    for workload in workloads.GENERATORS:
        for r in workloads.generate(workload, seed):
            if r["kind"] == "compute":
                assert reference.digest(r["family"], r["N"], r["max_n"]) is not None


def _corrupt_last_digit(text: str) -> str:
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize(
    "request_",
    [
        workloads.compute_request("hg-cauchy", 3, 12, "series"),
        workloads.compute_request("comp-hg-euler", 2, 10, "all"),
        workloads.table1_request(),
    ],
    ids=["compute", "compute-all", "table1"],
)
def test_checker_flags_one_corrupted_digit(reference, request_):
    response = _respond(request_["argv"])
    assert check_response(request_, response, reference) is None
    corrupted = dict(response, stdout=_corrupt_last_digit(response["stdout"]))
    assert check_response(request_, corrupted, reference) is not None


def test_checker_flags_a_verify_report_that_lost_work(reference):
    request_ = workloads.verify_request("sumprod-pair", 6)
    response = _respond(request_["argv"])
    assert check_response(request_, response, reference) is None
    payload = json.loads(response["stdout"])
    payload["suites"] = payload["suites"][:-1]
    shortened = dict(response, stdout=json.dumps(payload))
    assert check_response(request_, shortened, reference) is not None


def test_checker_flags_nonzero_exit_and_exceptions(reference):
    request_ = workloads.table1_request()
    response = _respond(request_["argv"])
    assert check_response(request_, dict(response, exit=3), reference) is not None
    assert check_response(request_, dict(response, exit=None, error="boom"), reference) is not None


def test_traced_pass_self_times_fit_in_request_spans(reference):
    requests = [
        workloads.verify_request("tangent", 6),
        workloads.compute_request("hg-euler", 2, 12, "all"),
        workloads.compute_request("hg-bernoulli", 2, 30, "series"),
        workloads.verify_request("sumprod-pair", 8),
    ]
    result = run.run_pass(requests, reference, run.child_env(), 60.0, trace=True)
    assert result.failures == []
    trace = result.trace
    assert trace["requests"] == len(requests)
    assert trace["max_self_excess_s"] <= 1e-9
    layers = trace["layers"]
    # verify's suites run on a pool thread; their spans must still be found
    # under the request that waited for them
    assert layers["identities.self_s"] > 0 and layers["cli.wait_s"] > 0
    assert layers["linalg.calls"] > 0 and layers["closed_forms.det_s"] > 0
    assert layers["families.table_redundant_ratio"] > 0
    assert layers["exact.compositions_yielded"] > 0


def test_a_pass_past_its_limit_is_killed_and_its_unanswered_requests_fail(reference):
    requests = workloads.generate("tables", 1)
    result = run.run_pass(requests, reference, run.child_env(), 1.0)
    assert result.cut_short
    assert 0 < result.failed <= len(requests)
    assert len(result.latencies) == len(requests)
