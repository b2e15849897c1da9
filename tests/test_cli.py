import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import hgnum
from hgnum import cli, closed_forms, identities
from hgnum.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    MAX_COMPUTE_N,
    SUITE_BOUND_FACTOR,
    _suite_registry,
    format_rational,
    main,
)
from hgnum.exact import factorial
from hgnum.families import MAX_N, FamilyKind

from helpers import numbers_mod_p, residue


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_csv_all_methods_agree(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "hg-euler", "--N", "2", "--max-n", "8",
            "--method", "all", "--format", "csv",
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0].keys() == {"family", "N", "n", "method", "value"}
        per_n = {}
        for r in rows:
            per_n.setdefault(int(r["n"]), set()).add(r["value"])
        assert all(len(vals) == 1 for vals in per_n.values())
        assert len(per_n[4]) == 1 and per_n[4] == {"13/1050"}
        # six method records per n for the main family
        assert sum(1 for r in rows if r["n"] == "4") == 6

    @pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
    def test_csv_bytes_are_what_csv_writer_writes(self, capsys, kind):
        # the largest --max-n that ``all`` admits: long and negative p/q values
        max_n = 60 if kind in (FamilyKind.HG_BERNOULLI, FamilyKind.HG_CAUCHY) else 30
        code, out, _ = run(
            capsys, "compute", "--family", kind.value, "--N", "3", "--max-n", str(max_n),
            "--method", "all",
        )
        assert code == EXIT_OK
        routes = closed_forms.table_routes()
        methods = sorted(m for k, m in routes if k is kind)
        columns = {m: routes[kind, m](kind, 3, max_n) for m in methods}
        rows = [
            (kind.value, 3, n, m, format_rational(columns[m][n]))
            for n in range(max_n + 1)
            for m in methods
        ]
        want = io.StringIO()
        csv.writer(want).writerows([("family", "N", "n", "method", "value"), *rows])
        assert out == want.getvalue()
        values = [row[-1] for row in rows]
        assert any(v.startswith("-") for v in values) and max(map(len, values)) > 40

    def test_single_trivial_record(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "hg-euler", "--N", "0", "--max-n", "0",
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1 and rows[0]["value"] == "1/1"

    def test_json_series(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "comp-hg-euler", "--N", "0", "--max-n", "4",
            "--method", "series", "--format", "json",
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert [r["value"] for r in records] == ["1/1", "0/1", "-1/3", "0/1", "7/15"]

    def test_csv_json_values_identical(self, capsys):
        args = ["compute", "--family", "hg-bernoulli", "--N", "2", "--max-n", "6",
                "--method", "all"]
        code, out_csv, _ = run(capsys, *args, "--format", "csv")
        assert code == EXIT_OK
        code, out_json, _ = run(capsys, *args, "--format", "json")
        assert code == EXIT_OK
        csv_vals = [(r["family"], r["N"], r["n"], r["method"], r["value"])
                    for r in csv.DictReader(io.StringIO(out_csv))]
        json_vals = [(r["family"], str(r["N"]), str(r["n"]), r["method"], r["value"])
                     for r in json.loads(out_json)]
        assert csv_vals == json_vals

    def test_value_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "hg-cauchy", "--N", "1", "--max-n", "6",
        )
        assert code == EXIT_OK
        for r in csv.DictReader(io.StringIO(out)):
            v = F(r["value"])
            assert format_rational(v) == r["value"]

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(
            capsys, "compute", "--family", "hg-bernoulli", "--N", "0", "--max-n", "4",
        )
        assert code == EXIT_INVALID and "N >= 1" in err

    @pytest.mark.parametrize("family", ["hg-euler", "comp-hg-euler", "hg-bernoulli", "hg-cauchy"])
    @pytest.mark.parametrize(
        "method", ["recurrence", "series", "explicit", "binomial", "det", "trudi", "all"]
    )
    def test_N_above_the_bound_exits_2(self, capsys, family, method):
        code, out, err = run(
            capsys, "compute", "--family", family, "--N", "99999999999", "--max-n", "2",
            "--method", method,
        )
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        defined = method in ("recurrence", "series", "all") or (
            (FamilyKind(family), method) in closed_forms.table_routes()
        )
        if defined:
            assert err == f"error: {family} needs N <= {MAX_N}, got 99999999999\n"

    def test_method_not_defined_for_family(self, capsys):
        code, _, err = run(
            capsys, "compute", "--family", "hg-cauchy", "--N", "1", "--max-n", "4",
            "--method", "explicit",
        )
        assert code == EXIT_INVALID

    @pytest.mark.parametrize(
        "family, N", [("hg-euler", 0), ("comp-hg-euler", 0), ("hg-bernoulli", 1), ("hg-cauchy", 1)]
    )
    def test_all_rows_of_each_method_are_its_own_output(self, capsys, family, N):
        args = ["compute", "--family", family, "--N", str(N), "--max-n", "8"]
        code, out, _ = run(capsys, *args, "--method", "all")
        assert code == EXIT_OK
        header, *rows = out.splitlines()
        methods = [m for k, m in closed_forms.table_routes() if k is FamilyKind(family)]
        for method in methods:
            code, single, _ = run(capsys, *args, "--method", method)
            assert code == EXIT_OK
            assert single.splitlines() == [header] + [
                r for r in rows if r.split(",")[3] == method
            ]

    @pytest.mark.parametrize(
        "family, N, methods, routes",
        [
            ("hg-euler", 0, 6, 6), ("comp-hg-euler", 0, 6, 6),
            # recurrence, series and det are three routes; det also serves trudi
            ("hg-bernoulli", 1, 4, 3), ("hg-cauchy", 1, 4, 3),
        ],
    )
    def test_all_runs_each_route_once(self, capsys, monkeypatch, family, N, methods, routes):
        calls = []
        for name in {route.__name__ for route in closed_forms.table_routes().values()}:
            route = getattr(closed_forms, name)
            monkeypatch.setattr(
                closed_forms, name,
                lambda *args, name=name, route=route: calls.append(name) or route(*args),
            )
        code, out, _ = run(
            capsys, "compute", "--family", family, "--N", str(N), "--max-n", "12",
            "--method", "all",
        )
        assert code == EXIT_OK
        assert len(calls) == len(set(calls)) == routes
        # every method still has its record for every n
        assert len(out.splitlines()) == 1 + 13 * methods

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "vals.csv"
        code, out, _ = run(
            capsys, "compute", "--family", "hg-euler", "--N", "1", "--max-n", "4",
            "--out", str(path),
        )
        assert code == EXIT_OK and out == ""
        rows = list(csv.DictReader(path.open()))
        assert rows[-1]["value"] == "1/10"


class TestTable1:
    def test_reproduces_golden(self, capsys):
        code, out, err = run(capsys, "table1")
        assert code == EXIT_OK
        assert "diff" not in err
        assert "-199360981/1" in out
        assert "558599021/126395447928750" in out
        assert "-1/91" in out


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tangent", "--max-n", "8")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] and payload["suites"][0]["suite"] == "tangent"

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == EXIT_INVALID

    def test_e1_bernoulli_deep(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "e1-bernoulli", "--max-n", "60")
        assert code == EXIT_OK and json.loads(out)["passed"]

    def test_several_fast_suites(self, capsys):
        for suite in ("euler-pair-sum", "bernoulli-lemma", "tan-maclaurin"):
            code, out, _ = run(capsys, "verify", "--suite", suite)
            assert code == EXIT_OK, suite
            assert json.loads(out)["passed"]

    def leak_an_imaginary_part(self, monkeypatch):
        real = identities.tangent_complex_sum

        def leaky(n):
            val = real(n)
            return (val[0], F(1, 5)) if n == 3 else val

        monkeypatch.setattr(identities, "tangent_complex_sum", leaky)

    def test_imaginary_part_fails_the_suite(self, capsys, monkeypatch):
        self.leak_an_imaginary_part(monkeypatch)
        code, out, err = run(capsys, "verify", "--suite", "tangent-complex", "--max-n", "5")
        assert code == EXIT_VERIFY_FAILED
        assert err.count("\n") == 1 and err.startswith("FAIL tangent-complex/tangent-complex")
        assert "Traceback" not in err
        failure = json.loads(out)["suites"][0]["first_failure"]
        assert failure == {"indices": ["imag", "3"], "lhs": "1/5", "rhs": "0/1"}

    def test_failing_suite_without_stderr(self, capsys, monkeypatch):
        # with no stderr the FAIL line is dropped, not written into the report
        self.leak_an_imaginary_part(monkeypatch)
        monkeypatch.setattr(sys, "stderr", None)
        code, out, _ = run(capsys, "verify", "--suite", "tangent-complex", "--max-n", "5")
        assert code == EXIT_VERIFY_FAILED
        assert json.loads(out)["passed"] is False


# One request of each subcommand that writes a result.
WRITING_COMMANDS = {
    "compute": ["compute", "--family", "hg-euler", "--N", "1", "--max-n", "4"],
    "table1": ["table1"],
    "verify": ["verify", "--suite", "tangent", "--max-n", "3"],
}


def run_cli_process(argv, **kwargs):
    """hgnum's CLI in a fresh interpreter, with stderr captured as text."""
    src = os.path.dirname(os.path.dirname(hgnum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "hgnum.cli", *argv],
        stderr=subprocess.PIPE, text=True, env=env, timeout=120, **kwargs,
    )


class TestRejectedInput:
    """Invalid requests end in exit 2 with a one-line message."""

    def rejected(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_negative_max_n_compute(self, capsys):
        for method in ("recurrence", "det", "all"):
            err = self.rejected(
                capsys, "compute", "--family", "hg-euler", "--N", "1", "--max-n", "-3",
                "--method", method,
            )
            assert "--max-n" in err

    def test_negative_max_n_verify(self, capsys):
        err = self.rejected(capsys, "verify", "--suite", "tan-maclaurin", "--max-n", "-2")
        assert "--max-n" in err

    def test_explicit_over_composition_cap(self, capsys):
        cap = str(closed_forms.COMPOSITION_CAP)
        over = str(closed_forms.COMPOSITION_CAP + 1)
        for family in ("hg-euler", "comp-hg-euler"):
            for method in ("explicit", "all"):
                err = self.rejected(
                    capsys, "compute", "--family", family, "--N", "1", "--max-n", over,
                    "--method", method,
                )
                assert cap in err

    def test_trudi_over_partition_cap(self, capsys):
        cap = str(closed_forms.PARTITION_CAP)
        over = str(closed_forms.PARTITION_CAP + 1)
        for family in ("hg-euler", "comp-hg-euler"):
            err = self.rejected(
                capsys, "compute", "--family", family, "--N", "1", "--max-n", over,
                "--method", "trudi",
            )
            assert cap in err

    def test_binomial_over_binomial_cap(self, capsys):
        cap = closed_forms.BINOMIAL_CAP
        for family, N in (("hg-euler", 1), ("comp-hg-euler", 6), ("hg-euler", 10000)):
            t0 = time.perf_counter()
            err = self.rejected(
                capsys, "compute", "--family", family, "--N", str(N), "--max-n", str(cap + 1),
                "--method", "binomial",
            )
            assert time.perf_counter() - t0 < 1
            assert err == f"error: index bound {cap + 1} exceeds the binomial-route cap {cap}\n"

    def test_all_checks_every_cap_before_any_method_runs(self, capsys, monkeypatch):
        ran = []
        recording = {
            key: lambda kind, N, nmax, method=key[1]: ran.append(method)
            for key in closed_forms.table_routes()
        }
        monkeypatch.setattr(closed_forms, "table_routes", lambda: recording)
        for family in ("hg-euler", "comp-hg-euler"):
            for over, terms, cap in (
                (MAX_COMPUTE_N, "composition", closed_forms.COMPOSITION_CAP),
                (closed_forms.COMPOSITION_CAP + 1, "composition", closed_forms.COMPOSITION_CAP),
            ):
                err = self.rejected(
                    capsys, "compute", "--family", family, "--N", "1", "--max-n", str(over),
                    "--method", "all",
                )
                assert err == f"error: index bound {over} exceeds the {terms}-route cap {cap}\n"
        assert ran == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the method is checked before N
            (["hg-cauchy", "--N", "0", "--max-n", "4", "--method", "explicit"],
             "method explicit is not defined for hg-cauchy"),
            # --max-n before the method
            (["hg-cauchy", "--N", "0", "--max-n", "-1", "--method", "explicit"],
             "--max-n must be nonnegative, got -1"),
            # N before the cap
            (["hg-euler", "--N", "-1", "--max-n", "201", "--method", "binomial"],
             "hg-euler needs N >= 0, got -1"),
        ],
    )
    def test_check_order(self, capsys, argv, message):
        err = self.rejected(capsys, "compute", "--family", *argv)
        assert err == f"error: {message}\n"

    def test_all_reports_the_first_methods_error_first(self, capsys):
        # recurrence, the first method, refuses the N before any cap is read
        err = self.rejected(
            capsys, "compute", "--family", "hg-euler", "--N", "-1", "--max-n", "100",
            "--method", "all",
        )
        assert err == "error: hg-euler needs N >= 0, got -1\n"

    def test_max_n_above_the_compute_bound(self, capsys):
        over = str(MAX_COMPUTE_N + 1)
        for family, method in (
            ("hg-euler", "recurrence"), ("hg-bernoulli", "series"), ("hg-cauchy", "det"),
            ("comp-hg-euler", "all"),
        ):
            t0 = time.perf_counter()
            err = self.rejected(
                capsys, "compute", "--family", family, "--N", "1", "--max-n", over,
                "--method", method,
            )
            assert time.perf_counter() - t0 < 1
            assert err == f"error: --max-n must be at most {MAX_COMPUTE_N}, got {over}\n"

    def test_max_n_above_a_suite_bound(self, capsys):
        for suite, (_, default) in _suite_registry().items():
            bound = SUITE_BOUND_FACTOR * default
            over = bound + 1
            err = self.rejected(capsys, "verify", "--suite", suite, "--max-n", str(over))
            assert err == f"error: --max-n for suite {suite} must be at most {bound}, got {over}\n"

    def test_suite_bound_is_checked_before_any_suite_runs(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(identities, "check_euler_pair_sum", lambda nmax: ran.append(nmax))
        # tangent-complex (default 8) is the fifth suite of ``all``
        err = self.rejected(capsys, "verify", "--suite", "all", "--max-n", "81")
        assert "suite tangent-complex must be at most 80" in err
        assert ran == []

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["compute", "--family", "hg-euler", "--N", "x", "--max-n", "3"], "--N"),
            (["compute", "--family", "hg-euler", "--N", "1", "--max-n", "1.5"], "--max-n"),
            (["compute", "--family", "nope", "--N", "1", "--max-n", "3"], "--family"),
            (["compute", "--family", "hg-euler", "--N", "1", "--max-n", "3", "--method", "nope"],
             "--method"),
            (["compute", "--family", "hg-euler", "--N", "1", "--max-n", "3", "--bogus"], "--bogus"),
            (["compute", "--family", "hg-euler", "--N", "1"], "--max-n"),
            (["verify", "--max-n", "x"], "--max-n"),
            (["bogus"], "bogus"),
            ([], "command"),
        ],
    )
    def test_malformed_arguments(self, capsys, argv, names):
        err = self.rejected(capsys, *argv)
        assert names in err and "usage" not in err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--help"])
        assert exc.value.code == 0
        assert "--max-n" in capsys.readouterr().out

    def test_empty_out_path(self, capsys):
        # an empty --out names no file: it is refused, not taken for stdout
        for argv in WRITING_COMMANDS.values():
            err = self.rejected(capsys, *argv, "--out", "")
            assert err == "error: cannot write : No such file or directory\n"

    @pytest.mark.parametrize("command", list(WRITING_COMMANDS))
    def test_closed_stdout(self, command):
        # with fd 1 closed at startup Python sets sys.stdout to None
        proc = run_cli_process(WRITING_COMMANDS[command], preexec_fn=lambda: os.close(1))
        assert proc.returncode == EXIT_INVALID
        assert proc.stderr == "error: cannot write stdout: Bad file descriptor\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--family", "nope", "--N", "1", "--max-n", "4"],
            ["compute", "--family", "hg-euler", "--N", "1", "--max-n", "4", "--out", "{missing}"],
            ["verify", "--suite", "nope"],
        ],
    )
    def test_closed_stderr(self, tmp_path, argv):
        # with fd 2 closed at startup Python sets sys.stderr to None; the error
        # line is dropped and stdout stays empty
        argv = [arg.format(missing=tmp_path / "missing" / "out.csv") for arg in argv]
        proc = run_cli_process(argv, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2))
        assert proc.returncode == EXIT_INVALID
        assert proc.stdout == ""

    def test_explicit_at_composition_cap(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "hg-euler", "--N", "0", "--max-n",
            str(closed_forms.COMPOSITION_CAP), "--method", "explicit",
        )
        assert code == EXIT_OK
        assert list(csv.DictReader(io.StringIO(out)))[6]["value"] == "-61/1"


class TestUnwritableOut:
    """An ``--out`` that cannot be written ends in exit 2 with one line
    naming the path and the reason, for every subcommand."""

    def unwritable(self, tmp_path):
        # a missing directory, and a directory in place of a file
        return (
            (tmp_path / "missing" / "out.txt", "No such file or directory"),
            (tmp_path, "Is a directory"),
        )

    @pytest.mark.parametrize("command", list(WRITING_COMMANDS))
    def test_unwritable_out(self, capsys, tmp_path, command):
        for path, reason in self.unwritable(tmp_path):
            code, out, err = run(capsys, *WRITING_COMMANDS[command], "--out", str(path))
            assert code == EXIT_INVALID
            assert out == ""
            assert err == f"error: cannot write {path}: {reason}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", list(WRITING_COMMANDS))
    def test_unwritable_stdout(self, command):
        with open("/dev/full", "w") as full:
            proc = run_cli_process(WRITING_COMMANDS[command], stdout=full)
        assert proc.returncode == EXIT_INVALID
        assert proc.stderr == "error: cannot write stdout: No space left on device\n"

    @pytest.mark.parametrize("command", list(WRITING_COMMANDS))
    def test_writable_out(self, capsys, tmp_path, command):
        path = tmp_path / "out.txt"
        code, out, err = run(capsys, *WRITING_COMMANDS[command], "--out", str(path))
        assert code == EXIT_OK and out == "" and err == ""
        assert path.read_text()


def test_large_N_with_cold_factorials(capsys):
    factorial.cache_clear()
    code, out, err = run(capsys, "compute", "--family", "hg-euler", "--N", "3000", "--max-n", "2")
    assert code == EXIT_OK and err == ""
    assert list(csv.DictReader(io.StringIO(out)))[2]["value"] == "-1/18009001"


@pytest.fixture
def default_str_digits_limit():
    """A fresh interpreter's limit on converting ints to text, in place for
    the test and restored after it (Python 3.10.7 on; earlier ones have no
    limit)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    held = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(held)


def test_values_past_the_str_digits_limit(capsys, default_str_digits_limit):
    code, out, err = run(
        capsys, "compute", "--family", "hg-cauchy", "--N", "10000", "--max-n", "260",
        "--method", "det",
    )
    assert code == EXIT_OK and err == ""
    *key, value = out.splitlines()[-1].split(",")
    assert key == ["hg-cauchy", "10000", "260", "det"]
    p, q = value.split("/")
    assert len(p.lstrip("-")) > 4300
    # reading the value back needs the limit lifted too; the fixture restores it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    assert residue(F(int(p), int(q))) == numbers_mod_p("hg-cauchy", 10000, 260)[260]


def test_one_parser_serves_every_request(capsys):
    requests = [
        ["compute", "--family", "hg-euler", "--N", "x", "--max-n", "3"],
        ["compute", "--family", "hg-bernoulli", "--N", "2", "--max-n", "6"],
        ["compute", "--family", "hg-cauchy", "--N", "1", "--max-n", "5", "--method", "all",
         "--format", "json"],
        ["verify", "--suite", "tangent", "--max-n", "3"],
        ["compute", "--help"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    alone = []
    for argv in requests:
        cli._parser.cache_clear()
        alone.append(outcome(argv))
    cli._parser.cache_clear()
    together = [outcome(argv) for argv in requests]
    assert together == alone
    assert [code for code, _, _ in together] == [EXIT_INVALID, EXIT_OK, EXIT_OK, EXIT_OK, 0]
    assert cli._parser.cache_info().misses == 1


def test_the_parser_is_not_built_at_import():
    src = os.path.dirname(os.path.dirname(hgnum.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import hgnum.cli; print(hgnum.cli._parser.cache_info().misses)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.stdout == "0\n" and proc.returncode == 0


def test_import_pulls_in_no_dataclasses():
    # dataclasses imports inspect, and the two cost a start-up more than most
    # requests take; no class of the package needs them
    src = os.path.dirname(os.path.dirname(hgnum.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import hgnum.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.stdout == "[]\n" and proc.returncode == 0
