"""hgnum benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload tables|routes|verify --seed N --seconds S --trace 0|1

Run from the repository root; hgnum is imported from ``src`` and need not be
installed.  The request list is generated from the seed before anything is
timed.  Each pass sends the whole list, one request at a time, to a fresh
interpreter running ``worker.py``, and every output is checked exactly
against ``reference.json``.

With ``--trace 0`` the run first times several bare interpreter start-ups
that import ``hgnum.cli`` (``setup_s``), then repeats passes until the next
one would end after ``--seconds`` (at least two), and reports medians over
passes.  With ``--trace 1`` it runs one plain pass and one traced pass and
reports the per-layer metrics of the traced one, with the difference of the
two pass times as the tracing overhead.  The spans of the traced pass are
written to ``.bench_out/``.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 whenever that line is
printed; it is nonzero, with no result line, when hgnum cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from check import Reference, check_response

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
OUT_DIR = ROOT / ".bench_out"

SETUP_SPAWNS = 15
MIN_PASSES = 2
# A run must end within 180 s even if a request hangs; requests a killed pass
# never answered count as failed.
RUN_LIMIT_S = 150.0


@dataclass
class Pass:
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    maxrss_mb: float = 0.0
    output_bytes: int = 0
    cut_short: bool = False
    trace: dict | None = None


class SetupError(RuntimeError):
    """hgnum could not be imported, so there is nothing to measure."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HGNUM_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict[str, str], spawns: int) -> list[float]:
    """Seconds from spawning an interpreter to ``hgnum.cli`` being imported,
    once per spawn; a first, untimed spawn leaves the bytecode cache warm."""
    samples = []
    for i in range(spawns + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--ready-only"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate()
        if proc.returncode != 0 or not line.startswith(b'{"ready"'):
            raise SetupError(err.decode(errors="replace").strip() or "worker did not start")
        if i:
            samples.append(elapsed)
    return samples


def run_pass(
    requests: list[dict], reference: Reference, env: dict[str, str], limit_s: float,
    trace: bool = False, spans_path: Path | None = None,
) -> Pass:
    cmd = [sys.executable, str(WORKER), "--trace", str(int(trace))]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=ROOT,
    )
    payload = json.dumps(requests).encode()
    try:
        out, err = proc.communicate(payload, timeout=max(1.0, limit_s))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    lines = []
    for line in out.decode().splitlines()[1:]:
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            break  # the line the worker was writing when it was killed
    responses = [r for r in lines if "latency_s" in r]
    done = next((r for r in lines if r.get("done")), None)

    result = Pass(attempted=len(requests))
    for i, (request, response) in enumerate(zip(requests, responses)):
        result.latencies.append(response["latency_s"])
        result.output_bytes += len(response["stdout"].encode())
        reason = check_response(request, response, reference)
        if reason is not None:
            result.failed += 1
            result.failures.append(f"request {i} {' '.join(request['argv'])}: {reason}")
    result.cut_short = len(responses) < len(requests)
    for request in requests[len(responses):]:
        # an unanswered request is timed as taking the whole limit
        result.latencies.append(limit_s)
        result.failed += 1
        result.failures.append(f"unfinished within {limit_s:.0f}s: {' '.join(request['argv'])}")
    if done is None:
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        result.failures.append(f"worker did not finish the pass {tail}")
    else:
        result.maxrss_mb = done["maxrss_kb"] / 1024
        result.trace = done.get("trace")
    result.wall_s = sum(result.latencies)
    return result


def latency_summary(latencies: list[float]) -> tuple[float, float, int]:
    p90 = statistics.quantiles(latencies, n=10)[-1]
    return statistics.median(latencies), p90, sum(1 for x in latencies if x > p90)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    requests = workloads.generate(args.workload, args.seed)
    reference = Reference.load()
    env = child_env()
    try:
        setup = measure_setup(env, 1 if args.trace else SETUP_SPAWNS)
    except SetupError as exc:
        print(f"error: hgnum.cli cannot be imported: {exc}", file=sys.stderr)
        return 2

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    passes: list[Pass] = []
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        passes.append(run_pass(requests, reference, env, remaining() / 2))
        passes.append(run_pass(requests, reference, env, remaining(), True, spans))
    else:
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(requests, reference, env, remaining()))
            if passes[-1].cut_short:
                break  # a pass was cut short; the time is up
            used = time.perf_counter() - t0
            per_pass = used / len(passes)
            if len(passes) >= MIN_PASSES and used + per_pass > args.seconds:
                break
            if 1.5 * per_pass > remaining():
                break  # another pass might not finish within the run's limit

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    for reason in failures[:10]:
        print(f"FAIL {reason}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(requests)} requests, "
        f"{attempted} attempted, {failed} failed (fail_ratio {failed / attempted:.4f})"
    )

    if args.trace:
        plain, traced = passes
        layers = dict((traced.trace or {}).get("layers", {}))
        layers["cli.output_bytes"] = traced.output_bytes
        layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
    else:
        p50, p90, beyond = latency_summary([x for p in passes for x in p.latencies])
        metrics = {
            "wall_s": {"value": statistics.median(p.wall_s for p in passes), "unit": "s"},
            "latency_p50_s": {"value": p50, "unit": "s"},
            "latency_p90_s": {"value": p90, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p.maxrss_mb for p in passes), "unit": "MB"},
        }
        print(f"  {beyond} of {sum(len(p.latencies) for p in passes)} request times lie beyond p90")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
