"""Write ``reference.json``: digests of every value the workloads can ask for.

Run from the repository root when the families or the workload space change:

    python3 bench/make_reference.py

Values come from hgnum's table route and are accepted only after they pass
checks outside the timed benchmark:

* the series route agrees with the table route for every (family, N);
* the Hessenberg-determinant route agrees for n <= 40;
* sympy's ``euler`` gives hg-euler N=0 and sympy's ``bernoulli`` gives
  hg-bernoulli N=1 (hgnum's B_1 is -1/2, sympy 1.14's is +1/2);
* sympy's series of t/log(1+t) gives hg-cauchy N=1 (its n-th coefficient
  times n!);
* the published table ``hgnum.goldens.TABLE1`` gives hg-euler N <= 6, n <= 14.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sympy  # noqa: E402

from hgnum import closed_forms  # noqa: E402
from hgnum.cli import format_rational  # noqa: E402
from hgnum.families import FamilyId, FamilyKind, table, via_series  # noqa: E402
from hgnum.goldens import TABLE1  # noqa: E402

from check import DIGEST_BYTES, REFERENCE_PATH, digest  # noqa: E402
from workloads import FAMILIES, TABLE_MAX_N, TABLE_N_MAX, min_N  # noqa: E402

MAX_N = TABLE_MAX_N[1]
DET_CHECK_MAX_N = 40

DET_ROUTE = {
    "hg-euler": closed_forms.hg_euler_det,
    "comp-hg-euler": closed_forms.comp_hg_euler_det,
    "hg-bernoulli": closed_forms.hg_bernoulli_det,
    "hg-cauchy": closed_forms.hg_cauchy_det,
}


def _agree(label: str, got, want) -> None:
    if got != want:
        raise SystemExit(f"reference check failed: {label}: {got} != {want}")


def _sympy_value(v) -> str:
    v = sympy.Rational(v)
    return f"{v.p}/{v.q}"


def _oracles(columns: dict) -> list[str]:
    euler = columns[("hg-euler", 0)]
    for n in range(MAX_N + 1):
        _agree(f"hg-euler N=0 n={n} vs sympy.euler", euler[n], _sympy_value(sympy.euler(n)))
    bern = columns[("hg-bernoulli", 1)]
    for n in range(MAX_N + 1):
        want = sympy.Rational(-1, 2) if n == 1 else sympy.bernoulli(n)
        _agree(f"hg-bernoulli N=1 n={n} vs sympy.bernoulli", bern[n], _sympy_value(want))
    t = sympy.symbols("t")
    poly = sympy.series(t / sympy.log(1 + t), t, 0, MAX_N + 1).removeO()
    cauchy = columns[("hg-cauchy", 1)]
    for n in range(MAX_N + 1):
        want = poly.coeff(t, n) * sympy.factorial(n)
        _agree(f"hg-cauchy N=1 n={n} vs series of t/log(1+t)", cauchy[n], _sympy_value(want))
    for (N, n), value in TABLE1.items():
        _agree(f"TABLE1 N={N} n={n}", columns[("hg-euler", N)][n], format_rational(value))
    return [
        f"hg-euler N=0, n<={MAX_N}: sympy.euler",
        f"hg-bernoulli N=1, n<={MAX_N}: sympy.bernoulli (B_1 = -1/2)",
        f"hg-cauchy N=1, n<={MAX_N}: n! [t^n] t/log(1+t) by sympy.series",
        "hg-euler N<=6, even n<=14: hgnum.goldens.TABLE1",
        f"every (family, N): series route equals table route for n<={MAX_N}",
        f"every (family, N): determinant route equals table route for n<={DET_CHECK_MAX_N}",
    ]


def main() -> int:
    start = time.perf_counter()
    columns: dict[tuple[str, int], list[str]] = {}
    for family in FAMILIES:
        kind = FamilyKind(family)
        for N in range(min_N(family), TABLE_N_MAX + 1):
            fam = FamilyId(kind, N)
            values = table(fam, MAX_N).values
            _agree(f"{family} N={N} series route", via_series(fam, MAX_N).values, values)
            det = DET_ROUTE[family]
            for n in range(1, DET_CHECK_MAX_N + 1):
                if family in ("hg-euler", "comp-hg-euler") and n % 2:
                    continue
                _agree(f"{family} N={N} n={n} det route", det(N, n), values[n])
            columns[(family, N)] = [format_rational(v) for v in values]
    validated = _oracles(columns)
    digests: dict[str, dict[str, str]] = {}
    for (family, N), column in columns.items():
        digests.setdefault(family, {})[str(N)] = "".join(digest(v) for v in column)
    data = {
        "digest": f"blake2b, {DIGEST_BYTES} bytes, of each value's p/q text",
        "max_n": MAX_N,
        "validated": validated,
        "digests": digests,
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH.name} in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
