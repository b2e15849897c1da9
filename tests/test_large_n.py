"""The routes agree at the N bound, N = 10000, where the weights hold
factorials of tens of thousands of digits: hg-bernoulli and hg-cauchy through
``compute --method all`` (their recurrence, series and det routes).  The Euler
types' routes at this N are checked against the modular oracle in
``test_modular_oracle.py``."""

from collections import OrderedDict

import pytest

from hgnum import families
from hgnum.cli import EXIT_OK, main
from hgnum.families import MAX_N


@pytest.fixture(autouse=True)
def cold_memo(monkeypatch):
    """The recurrence route builds its table here, not in an earlier test."""
    monkeypatch.setattr(families, "_memo", OrderedDict())


@pytest.mark.parametrize("family", ["hg-bernoulli", "hg-cauchy"])
def test_compute_all_agrees_at_the_N_bound(capsys, family):
    code = main(["compute", "--family", family, "--N", str(MAX_N), "--max-n", "120",
                 "--method", "all"])
    out = capsys.readouterr()
    assert (code, out.err) == (EXIT_OK, "")
    assert len(out.out.splitlines()) == 1 + 121 * 4

