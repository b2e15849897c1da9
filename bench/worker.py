"""One pass of a request list through ``hgnum.cli.main``, in this interpreter.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src``, so the
factorial cache and any other in-process cache start cold.  Reads the request
list as JSON on stdin and sends them one at a time, in order (a closed loop
with a single client).  After each request it writes one JSON line to stdout
with the request's time, exit code and captured output; the capture and the
write happen outside the timed region.  A last line reports the process's
peak resident memory and, with ``--trace 1``, the layer summary.

    python3 bench/worker.py --ready-only     # import hgnum.cli, say so, exit
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time


def serve(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash fails this request, not the pass
            code = None
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return {
        "latency_s": t1 - t0,
        "exit": code,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ready-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    args = parser.parse_args()

    import hgnum.cli

    channel = sys.stdout
    channel.write('{"ready": true}\n')
    channel.flush()
    if args.ready_only:
        return 0
    requests = json.load(sys.stdin)

    cli_main = hgnum.cli.main
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        cli_main = tracer.wrap("cli", "main", cli_main)

    for request in requests:
        channel.write(json.dumps(serve(cli_main, request["argv"])) + "\n")
        channel.flush()

    done = {"done": True, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        done["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    channel.write(json.dumps(done) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
