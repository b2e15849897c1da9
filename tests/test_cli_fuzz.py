"""Any argument list ends in an exit code, never in a traceback: ``compute``,
``table1`` and ``verify`` over every family, method and suite (and unknown
ones), N and ``--max-n`` at and around each bound, and malformed values.

The input space is small, so every argument list in it is run.  Admitted
requests with ``--max-n`` above 24 are skipped so that each one that runs takes
well under a second; refused ones must be refused in under a second whatever
their size.
"""

import contextlib
import functools
import io
import itertools
import time

from hgnum import cli, closed_forms
from hgnum.exact import InvalidParameter
from hgnum.families import FamilyKind

FAMILIES = [kind.value for kind in FamilyKind] + ["nope"]
METHODS = list(cli._METHODS) + ["all", "nosuch"]
SUITES = list(cli._suite_registry()) + ["all", "nosuch"]
NS = ["-1", "0", "1", "2", "24", "10000", "10001"]
MAX_NS = ["-1", "0", "1", "2", "24", "31", "61", "201", "1001", "x", "", "1e3"]
MISSING = None  # ``--max-n`` given last, with no value
ADMITTED_MAX_N = 24


def compute_admits(family, method, N, max_n):
    if family == "nope" or method == "nosuch":
        return False
    if not 0 <= max_n <= cli.MAX_COMPUTE_N:
        return False
    kind = FamilyKind(family)
    methods = [m for k, m in closed_forms.table_routes() if k is kind]
    try:
        for m in methods if method == "all" else [method]:
            closed_forms.admit(kind, m, int(N), max_n)
    except InvalidParameter:
        return False
    return True


def verify_admits(suite, max_n):
    registry = cli._suite_registry()
    if suite == "all":
        defaults = [default for _, default in registry.values()]
    elif suite in registry:
        defaults = [registry[suite][1]]
    else:
        return False
    return all(0 <= max_n <= cli.SUITE_BOUND_FACTOR * d for d in defaults)


def argvs():
    """(argv, whether it would be admitted at an int ``--max-n``) for every
    argument list of the input space."""
    for family, method, N in itertools.product(FAMILIES, METHODS, NS):
        argv = ["compute", "--family", family, "--N", N, "--method", method]
        yield argv, functools.partial(compute_admits, family, method, N)
    for suite in SUITES:
        yield ["verify", "--suite", suite], functools.partial(verify_admits, suite)
    yield ["table1"], lambda m: False  # table1 takes no --max-n


def cases():
    for argv, admits in argvs():
        if argv == ["table1"]:
            yield argv
        yield argv + ["--max-n"]
        for max_n in MAX_NS:
            if max_n.lstrip("-").isdigit() and int(max_n) > ADMITTED_MAX_N and admits(int(max_n)):
                continue
            yield argv + ["--max-n", max_n]


def test_every_argv_ends_in_an_exit_code():
    codes = {cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_MISMATCH, cli.EXIT_VERIFY_FAILED}
    ran = 0
    for argv in cases():
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        assert code in codes, argv
        assert "Traceback" not in err.getvalue(), argv
        if code == cli.EXIT_INVALID:
            assert out.getvalue() == "", argv
            assert err.getvalue().count("\n") <= 1 and err.getvalue().startswith("error: "), argv
            assert elapsed < 1, (argv, elapsed)
        ran += 1
    assert ran > 3000
