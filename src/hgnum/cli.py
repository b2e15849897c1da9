"""Command-line front end.

Subcommands:

* ``compute`` — emit a number table by any method (or all of them) as CSV or
  JSON records ``family,N,n,method,value`` with exact ``p/q`` values (the CSV
  as ``csv.writer`` writes it: CRLF line ends, no field quoted).  ``all``
  runs each route once; for hg-bernoulli and hg-cauchy the det route gives
  both the ``det`` and the ``trudi`` column.
* ``table1`` — recompute the published 7 x 8 table and diff it against the
  embedded golden copy.
* ``verify`` — run identity suites and emit a JSON report.

Exit codes: 0 success, 2 invalid parameters, 3 method disagreement or golden
table mismatch, 4 identity suite failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Callable, NoReturn, Sequence

from . import closed_forms, identities
from .exact import InvalidParameter
from .families import FamilyId, FamilyKind, table
from .goldens import TABLE1, TABLE1_N_MAX, TABLE1_NMAX
from .identities import IdentityReport

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_VERIFY_FAILED = 4

_METHODS = tuple(dict.fromkeys(method for _, method in closed_forms.table_routes()))

# The largest ``compute --max-n``.  At 1000 on a shared 2-CPU VM, hg-cauchy by
# series takes about 5 s at N = 1 and 145 s at N = 10000 (its recurrence 96 s).
MAX_COMPUTE_N = 1000
# ``verify`` refuses a ``--max-n`` above this many times the suite's default.
SUITE_BOUND_FACTOR = 10

_FIELDS = ("family", "N", "n", "method", "value")


def format_rational(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _check_max_n(nmax: int, bound: int = MAX_COMPUTE_N, label: str = "--max-n") -> None:
    if nmax < 0:
        raise InvalidParameter(f"--max-n must be nonnegative, got {nmax}")
    if nmax > bound:
        raise InvalidParameter(f"{label} must be at most {bound}, got {nmax}")


def _write_records(rows: list[tuple], fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        # The bytes csv.writer gives: no field can hold a comma, a quote or a
        # line break, so none is quoted, and each record ends in \r\n.
        lines = [f"{k},{N},{n},{m},{v}\r\n" for k, N, n, m, v in rows]
        text = ",".join(_FIELDS) + "\r\n" + "".join(lines)
    else:
        text = json.dumps([dict(zip(_FIELDS, row)) for row in rows], indent=2) + "\n"
    _emit(text, out_path)


def _emit(text: str, out_path: str | None) -> None:
    try:
        if out_path is None:
            if sys.stdout is None:  # fd 1 was closed when Python started
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out_path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        reason = exc.strerror or exc
        target = "stdout" if out_path is None else out_path
        raise InvalidParameter(f"cannot write {target}: {reason}") from None


def _stderr(line: str) -> None:
    """One line to stderr; dropped if fd 2 was closed at start, as print would use stdout."""
    if sys.stderr is not None:
        print(line, file=sys.stderr)


def cmd_compute(args: argparse.Namespace) -> int:
    kind = FamilyKind(args.family)
    routes = closed_forms.table_routes()
    methods = [m for k, m in routes if k is kind] if args.method == "all" else [args.method]
    # Every check before any method runs, so a refused request costs nothing
    # and ``all`` gives the message its first refused method would.
    _check_max_n(args.max_n)
    for m in methods:
        closed_forms.admit(kind, m, args.N, args.max_n)
    # A route that serves several methods runs once and gives each its column.
    ran = {r: r(kind, args.N, args.max_n) for r in dict.fromkeys(routes[kind, m] for m in methods)}
    columns = {m: ran[routes[kind, m]] for m in methods}
    rows = [
        (kind.value, args.N, n, m, format_rational(columns[m][n]))
        for n in range(args.max_n + 1)
        for m in sorted(methods)
    ]
    _write_records(rows, args.format, args.out)
    baseline = columns[methods[0]]
    for m in methods[1:]:
        for n, (a, b) in enumerate(zip(baseline, columns[m])):
            if a != b:
                _stderr(
                    f"disagreement at n={n}: {methods[0]}={format_rational(a)} "
                    f"{m}={format_rational(b)}"
                )
                return EXIT_MISMATCH
    return EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    lines = []
    mismatches = []
    header = ["n"] + [str(n) for n in range(0, TABLE1_NMAX + 1, 2)]
    lines.append("\t".join(header))
    for N in range(TABLE1_N_MAX + 1):
        vals = table(FamilyId(FamilyKind.HG_EULER, N), TABLE1_NMAX)
        row = [f"E_{N}"]
        for n in range(0, TABLE1_NMAX + 1, 2):
            got = vals[n]
            row.append(format_rational(got))
            want = TABLE1[(N, n)]
            if got != want:
                mismatches.append(
                    f"(N={N}, n={n}): computed {format_rational(got)}, "
                    f"golden {format_rational(want)}"
                )
        lines.append("\t".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    if mismatches:
        for m in mismatches:
            _stderr(f"diff: {m}")
        return EXIT_MISMATCH
    return EXIT_OK


def _suite_registry() -> dict[str, tuple[Callable[[int], list[IdentityReport]], int]]:
    """suite -> (its reports at an index bound, its default bound)."""

    def one(fn):
        return lambda nmax: [fn(nmax)]

    def per_n(fn, ns=range(1, 7)):
        return lambda nmax: [fn(N, nmax) for N in ns]

    return {
        "euler-pair-sum": (one(identities.check_euler_pair_sum), 20),
        "e1-bernoulli": (one(identities.check_E1_bernoulli), 60),
        "bernoulli-lemma": (one(identities.check_bernoulli_lemma), 30),
        "tangent": (one(identities.check_tangent_closed_form), 12),
        "tangent-complex": (one(identities.check_tangent_complex_sum), 8),
        "tan-maclaurin": (one(identities.check_tan_maclaurin), 12),
        "sumprod-pair": (per_n(identities.check_sumprod_pair), 30),
        "sumprod-pair-comp": (per_n(identities.check_sumprod_pair_comp), 30),
        "sumprod-trinomial": (per_n(identities.check_sumprod_trinomial), 30),
        "sumprod-trinomial-comp": (per_n(identities.check_sumprod_trinomial_comp), 30),
        "series-identities": (per_n(identities.check_series_identities, range(1, 5)), 24),
    }


def _report_json(report: IdentityReport) -> dict:
    out: dict = {
        "identity": report.identity_id,
        "range": report.range_checked,
        "passed": report.passed,
    }
    if report.first_failure is not None:
        ff = report.first_failure
        out["first_failure"] = {
            "indices": [str(i) for i in ff.indices],
            "lhs": format_rational(ff.lhs),
            "rhs": format_rational(ff.rhs),
        }
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    registry = _suite_registry()
    if args.suite == "all":
        selected = registry
    elif args.suite in registry:
        selected = {args.suite: registry[args.suite]}
    else:
        raise InvalidParameter(f"unknown suite {args.suite!r}")
    if args.max_n is not None:
        for name, (_, default) in selected.items():
            _check_max_n(args.max_n, SUITE_BOUND_FACTOR * default, f"--max-n for suite {name}")
    # One worker: Fraction arithmetic holds the GIL.  The pool goes once
    # bench/selftest.py stops asserting cli.wait_s > 0.
    with ThreadPoolExecutor(max_workers=1) as pool:
        futures = [
            (name, pool.submit(run, default if args.max_n is None else args.max_n))
            for name, (run, default) in selected.items()
        ]
        reports = [(name, r) for name, fut in futures for r in fut.result()]
    payload = {
        "suites": [dict(_report_json(r), suite=name) for name, r in reports],
        "passed": all(r.passed for _, r in reports),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if not payload["passed"]:
        for name, r in reports:
            if not r.passed:
                ff = r.first_failure
                _stderr(
                    f"FAIL {name}/{r.identity_id} at {ff.indices}: "
                    f"lhs={format_rational(ff.lhs)} rhs={format_rational(ff.rhs)}"
                )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A parse error raises InvalidParameter, so it ends in one ``error:`` line."""

    def error(self, message: str) -> NoReturn:
        raise InvalidParameter(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hgnum")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute a number table")
    p_compute.add_argument("--family", required=True, choices=[k.value for k in FamilyKind])
    p_compute.add_argument("--N", type=int, required=True)
    p_compute.add_argument("--max-n", type=int, required=True, dest="max_n")
    p_compute.add_argument("--method", default="recurrence", choices=_METHODS + ("all",))
    p_compute.add_argument("--format", default="csv", choices=("csv", "json"))
    p_compute.add_argument("--out", default=None)
    p_compute.set_defaults(fn=cmd_compute)

    p_table = sub.add_parser("table1", help="reproduce and diff the published table")
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(fn=cmd_table1)

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument("--suite", default="all")
    p_verify.add_argument("--max-n", type=int, default=None, dest="max_n")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first request rather than at
    import, so importing the CLI costs no more than it did."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # Python (3.10.7 on) limits int-to-text conversion to guard parsing; the
        # CLI prints only integers it computed itself
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        return args.fn(args)
    except InvalidParameter as exc:
        _stderr(f"error: {exc}")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
