"""The CLI's bytes, pinned: stdout and the exit code of a fixed grid of
commands against SHA-256 digests of the output the CLI printed before the
family definitions were rebuilt on one spec table.  A refactor that changes
any byte of these outputs fails here.

The grid runs ``compute --method all`` for every family at its least N and
at N = 3, in CSV and in JSON, then ``table1`` and ``verify --suite all``.
"""

import contextlib
import hashlib
import io

import pytest

from hgnum.cli import main

DIGESTS = {
    "compute --family hg-euler --N 0 --max-n 24 --method all --format csv": (0, "5fcfa9f22061403656ace97b056fe67f6ddcdb3609fa08c8ea8e2a37d469e2d6"),
    "compute --family hg-euler --N 0 --max-n 24 --method all --format json": (0, "f21b91210805fa3d05bc25454432c8590de677699ecfc1751bc49fcdbffd2f89"),
    "compute --family hg-euler --N 3 --max-n 24 --method all --format csv": (0, "97a6347823628ff70419df05114e94234f8f307056d194438e539dd1994af180"),
    "compute --family hg-euler --N 3 --max-n 24 --method all --format json": (0, "2df23472b83d6bd7e23592da7d10acf7c6054f3b4de35df1e0e39c1b9a110bde"),
    "compute --family comp-hg-euler --N 0 --max-n 24 --method all --format csv": (0, "9bbe5e4e1b884bdb76e8a4eac7deefea94768e04fda6faa013831d906080f093"),
    "compute --family comp-hg-euler --N 0 --max-n 24 --method all --format json": (0, "8d4e5cdc861bc3f951b45eed3cff2ac51ab325e476acb637653c83bd4fd64758"),
    "compute --family comp-hg-euler --N 3 --max-n 24 --method all --format csv": (0, "5cf8d893f39df2a9a5f47962535c5beefee7422dce4990ddf467c640db45d6a9"),
    "compute --family comp-hg-euler --N 3 --max-n 24 --method all --format json": (0, "d39fa94c18452a1cff24def2e6b323bc1c55a03739a2b115281faff9cb57762e"),
    "compute --family hg-bernoulli --N 1 --max-n 24 --method all --format csv": (0, "cbc0f78866f70e295d072bcc28a1dd6881d105944a76d05a5c7eed0a7da35f33"),
    "compute --family hg-bernoulli --N 1 --max-n 24 --method all --format json": (0, "0ca4f7773d1db43ebde4dc336a7dd73ba2a49ac27d24850ae6cd02a2d9cc0678"),
    "compute --family hg-bernoulli --N 3 --max-n 24 --method all --format csv": (0, "872168e2faff6a8dbd328ea0c1f256b508ce0910c2d8547e39e66e2df33cd6eb"),
    "compute --family hg-bernoulli --N 3 --max-n 24 --method all --format json": (0, "7cee5b9fb537680f2040cfb4b0efc457baedb9e8f3dfc4755c7328c304d501ec"),
    "compute --family hg-cauchy --N 1 --max-n 24 --method all --format csv": (0, "f22f482e9249969df387f36b6423109d592f8e805d43edaf91a474be15855b38"),
    "compute --family hg-cauchy --N 1 --max-n 24 --method all --format json": (0, "4781ce7b51490526d82733fd0d380617f7d0f17ccd9e5a5224a396577871332b"),
    "compute --family hg-cauchy --N 3 --max-n 24 --method all --format csv": (0, "a3655ef34f853c88251018d1cbc036a2a0628844f0b79b304d4ff75bae434175"),
    "compute --family hg-cauchy --N 3 --max-n 24 --method all --format json": (0, "583772395db4ebe622f422eb34bbfe64e9448da3f4b54a66d441b572af245a6d"),
    "table1": (0, "e459c38754a1cd98ed819110360258ed835b49cb22bd1cb18c9018de1b477fbd"),
    "verify --suite all": (0, "6877e7f12dd4948d591b71207437ed8eee20c666cdfc1f959ea04cf7c43e599d"),
}


@pytest.mark.parametrize("command", list(DIGESTS))
def test_cli_output_is_unchanged(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == DIGESTS[command]
