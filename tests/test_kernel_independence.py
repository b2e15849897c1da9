"""Which ``compute`` methods share a kernel: break one kernel at a time and
``compute --method all`` changes exactly the methods that run it.

Every family's ``recurrence`` (the number recurrences), ``series`` (the
Newton reciprocal) and ``det`` (the Hessenberg determinants) have kernels of
their own, so each of them changes one method and ``all`` exits 3.  For the
Euler types every other method has a kernel of its own too.  For hg-bernoulli
and hg-cauchy the Hessenberg determinants also serve ``trudi``, so that kernel
changes two methods, and the Euler-only kernels and the other family's
recurrence change nothing.  Four kernels are shared on purpose.  The
factorial-ratio constructor ``gen_ratio`` is the denominator of hg-euler,
comp-hg-euler and hg-bernoulli, so it feeds each of their routes but
``recurrence``: ``series`` reads the series, the others its weights.  That no
recurrence reads it is the point, since the recurrence checks the others;
hg-cauchy's ``gen_hgcauchy_denom`` is the same for that family.  The integer
product loop ``int_convolve`` runs the Newton reciprocal's products and,
through ``exact.convolve``, the binomial route's chain of powers.  The
reciprocal's middle product runs on ``chain_convolve`` instead where the
denominator's term ratio is an integer (the Euler types and hg-bernoulli), so
that kernel changes ``series`` there and nothing for hg-cauchy.  The prefix
kernel ``over_running_lcm``, which keeps the earlier values as ints over a
running lcm, runs both the number recurrences and the Hessenberg
determinants, so it changes ``recurrence`` and ``det`` (and ``trudi`` at
stride 1).  What guards it is outside the package: the modular oracle
(``test_modular_oracle.py``) checks both routes against residues mod a prime,
and the Riccati oracle (``test_riccati_oracle.py``) checks them against
exact values from a recurrence with no weights and no lcm.  The closed-form
frame ``_route`` admits a request, reads the weights and puts (sm)! c_m on the
stride for every closed-form route, so it changes ``explicit``, ``binomial``,
``det`` and ``trudi`` for the Euler types and ``det`` and ``trudi`` at stride
1; ``recurrence`` and ``series`` do not run it and check it.
"""

import csv
import io
from collections import OrderedDict
from fractions import Fraction as F

import pytest

from hgnum import closed_forms, exact, families, identities, linalg, series
from hgnum.cli import EXIT_MISMATCH, EXIT_OK, main
from hgnum.families import SPECS, FamilyKind

MAX_N = 12  # even, so the last index is a value of every family

# kernel -> every place the routes look it up
KERNELS = {
    "over_running_lcm": (families, linalg),
    "_binomial_recurrence": (families,),
    "_cauchy_recurrence": (families,),
    "gen_ratio": (families,),
    "gen_hgcauchy_denom": (families,),
    "reciprocal": (families, identities),
    "int_convolve": (exact, series),
    "chain_convolve": (series,),
    "hessenberg_det_prefixes": (closed_forms,),
    "trudi_expand": (closed_forms,),
    "_composition_sum": (closed_forms,),
    "_power_chain": (closed_forms,),
    "_route": (closed_forms,),
}

EULER_METHODS = {
    "over_running_lcm": {"recurrence", "det"},
    "_binomial_recurrence": {"recurrence"},
    "_cauchy_recurrence": set(),
    "gen_ratio": {"series", "explicit", "binomial", "det", "trudi"},
    "gen_hgcauchy_denom": set(),
    "reciprocal": {"series"},
    "int_convolve": {"series", "binomial"},
    "chain_convolve": {"series"},
    "hessenberg_det_prefixes": {"det"},
    "trudi_expand": {"trudi"},
    "_composition_sum": {"explicit"},
    "_power_chain": {"binomial"},
    "_route": {"explicit", "binomial", "det", "trudi"},
}
# kind -> kernel -> methods, for the stride-1 families, which differ only in
# their own recurrence and denominator and in the chain product
STRIDE1_METHODS = {
    kind: dict.fromkeys(KERNELS, set()) | {
        "over_running_lcm": {"recurrence", "det", "trudi"},
        own: {"recurrence"},
        denominator: {"series", "det", "trudi"},
        "reciprocal": {"series"},
        "int_convolve": {"series"},
        "chain_convolve": chain,
        "hessenberg_det_prefixes": {"det", "trudi"},
        "_route": {"det", "trudi"},
    }
    for kind, own, denominator, chain in (
        (FamilyKind.HG_BERNOULLI, "_binomial_recurrence", "gen_ratio", {"series"}),
        (FamilyKind.HG_CAUCHY, "_cauchy_recurrence", "gen_hgcauchy_denom", set()),
    )
}


def nudge(result):
    """The kernel's result with its last number moved by 1/7, or by 1 if it
    is an int."""
    if isinstance(result, int):
        return result + 1
    if isinstance(result, F):
        return result + F(1, 7)
    *head, last = result
    return type(result)([*head, nudge(last)])


def compute_all(monkeypatch, capsys, kind):
    """(exit code, stderr, method -> its column of printed values), on an
    empty table memo."""
    monkeypatch.setattr(families, "_memo", OrderedDict())
    N = SPECS[kind].least_N
    code = main(["compute", "--family", kind.value, "--N", str(N), "--max-n", str(MAX_N),
                 "--method", "all"])
    out = capsys.readouterr()
    columns = {}
    for row in csv.DictReader(io.StringIO(out.out)):
        columns.setdefault(row["method"], []).append(row["value"])
    return code, out.err, columns


@pytest.mark.parametrize("kernel", list(KERNELS))
@pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
def test_a_broken_kernel_changes_only_its_methods(monkeypatch, capsys, kind, kernel):
    code, err, clean = compute_all(monkeypatch, capsys, kind)
    assert (code, err) == (EXIT_OK, "")
    owners = KERNELS[kernel]
    real = getattr(owners[0], kernel)
    for owner in owners:
        assert getattr(owner, kernel) is real
        monkeypatch.setattr(owner, kernel, lambda *args, **kw: nudge(real(*args, **kw)))
    code, err, broken = compute_all(monkeypatch, capsys, kind)
    assert broken.keys() == clean.keys()
    changed = {m for m in clean if broken[m] != clean[m]}
    expected = EULER_METHODS[kernel] if SPECS[kind].stride == 2 else STRIDE1_METHODS[kind][kernel]
    assert changed == expected
    if expected:
        assert code == EXIT_MISMATCH
        assert err.startswith("disagreement at n=") and err.count("\n") == 1
    else:
        assert (code, err) == (EXIT_OK, "")
