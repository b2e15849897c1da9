"""Which ``compute`` methods share a kernel: break one kernel at a time and
``compute --method all`` changes exactly the methods that run it.

For the Euler types every method has a kernel of its own, so each broken
kernel changes one method and ``all`` exits 3.  For hg-bernoulli and
hg-cauchy the series reciprocal serves ``recurrence`` and ``series`` and the
Hessenberg determinants serve ``det`` and ``trudi``: those two kernels each
change two methods (``all`` still exits 3, the two routes disagreeing), and
the Euler-only kernels change nothing.
"""

import csv
import io
from collections import OrderedDict
from fractions import Fraction as F

import pytest

from hgnum import closed_forms, families
from hgnum.cli import EXIT_MISMATCH, EXIT_OK, main
from hgnum.families import SPECS, FamilyKind
from hgnum.series import TruncatedSeries

MAX_N = 12  # even, so the last index is a value of every family

# kernel -> where the routes look it up
KERNELS = {
    "_even_convolution_recurrence": families,
    "reciprocal": TruncatedSeries,
    "hessenberg_det_prefixes": closed_forms,
    "trudi_expand": closed_forms,
    "_composition_sum": closed_forms,
    "_power_chain": closed_forms,
}

EULER_METHODS = {
    "_even_convolution_recurrence": {"recurrence"},
    "reciprocal": {"series"},
    "hessenberg_det_prefixes": {"det"},
    "trudi_expand": {"trudi"},
    "_composition_sum": {"explicit"},
    "_power_chain": {"binomial"},
}
STRIDE1_METHODS = dict.fromkeys(KERNELS, set()) | {
    "reciprocal": {"recurrence", "series"},
    "hessenberg_det_prefixes": {"det", "trudi"},
}


def nudge(result):
    """The kernel's result with its last number moved by 1/7."""
    if isinstance(result, TruncatedSeries):
        return TruncatedSeries(nudge(result.coeffs))
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
    owner = KERNELS[kernel]
    real = getattr(owner, kernel)
    monkeypatch.setattr(owner, kernel, lambda *args: nudge(real(*args)))
    code, err, broken = compute_all(monkeypatch, capsys, kind)
    assert broken.keys() == clean.keys()
    changed = {m for m in clean if broken[m] != clean[m]}
    expected = (EULER_METHODS if SPECS[kind].stride == 2 else STRIDE1_METHODS)[kernel]
    assert changed == expected
    if expected:
        assert code == EXIT_MISMATCH
        assert err.startswith("disagreement at n=") and err.count("\n") == 1
    else:
        assert (code, err) == (EXIT_OK, "")
