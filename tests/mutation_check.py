"""Mutation check for the integer kernels, the identity checkers and the CLI,
run as a CI job of its own.

    python tests/mutation_check.py [module ...]     # default: every module in TESTS

Each mutant of ``src/hgnum/<module>.py`` changes one thing: it swaps one
``+``/``-`` or ``*``/``//``, turns one comparison into its neighbour, or adds
1 to one int constant.  The module's tests then run with ``-x`` on a copy of
the tree in a temporary directory, so the checkout is never rewritten; a
mutant whose tests run past two minutes (a loop that no longer ends), or past
1 GiB of address space (a loop that fills a list), counts as killed.  Each
mutant's pytest runs in a session of its own, whose process group is killed
once it ends, and SIGTERM (a CI timeout, ``kill``) exits through the same
cleanup, so neither a pytest child nor the temporary tree outlives the check.
A mutant is keyed by its source line, the column at which the mutated node
starts in that line and the node's text before and after, so two like
mutants on one line have keys of their own.  The check fails if a mutant
survives that is not in ``EQUIVALENT``, where each entry says why that mutant
cannot change a value, and if an entry for a module it ran matches no
survivor, or more than one.
"""

import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the tests of any one module stay under 100 MB; the bound keeps a mutant
# that loops while filling a list from taking the machine's memory
MEMORY_LIMIT = 1 << 30
# module -> its tests, the quick ones first since -x stops at the first failure
TESTS = {
    "exact": ["test_exact.py", "test_convolution.py", "test_integer_kernels.py"],
    "series": ["test_series.py", "test_brent_harvey.py", "test_integer_kernels.py",
               "test_series_identities.py"],
    "families": ["test_families.py", "test_family_spec.py", "test_table_memo.py",
                 "test_integer_kernels.py", "test_modular_oracle.py"],
    "linalg": ["test_linalg.py", "test_integer_kernels.py"],
    # test_identities.py pins each row of the suite table (its default, N range
    # and w) directly, and test_cli_bytes.py through verify --suite all's bytes
    "identities": ["test_identities.py", "test_series_identities.py", "test_convolution.py",
                   "test_cli_bytes.py"],
    "closed_forms": ["test_closed_forms.py", "test_table_routes.py", "test_integer_kernels.py",
                     "test_modular_oracle.py"],
    "cli": ["test_cli.py", "test_cli_bytes.py", "test_cli_fuzz.py"],
}
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
        ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
# "module: source line :: column: before -> after", as mutant_key gives it: why
# the mutant computes the same values
EQUIVALENT = {
    "exact: if hi - lo < 32: :: 3: hi - lo < 32 -> hi - lo <= 32":
        "the bound only picks which of two equal loops runs",
    "exact: if hi - lo < 32: :: 3: hi - lo -> hi + lo":
        "the bound only picks which of two equal loops runs",
    "exact: if hi - lo < 32: :: 13: 32 -> 33": "the bound only picks which of two equal loops runs",
    "exact: b = b + [0] * (hi + 1 - len(b)) :: 20: 1 -> 2": "b_{hi+1} is never read",
    "exact: b = b + [0] * (hi + 1 - len(b)) :: 15: hi + 1 - len(b) -> hi + 1 + len(b)":
        "zeros past b_hi are never read",
    "exact: nonzero, out = [(i, x) for i, x in enumerate(a[: hi + 1]) if x], [] :: 54: 1 -> 2":
        "an entry of a past hi is never reached: the loop stops at i > n",
    "exact: i0, i1, j = (n - last if n > last else 0), (n + 1 if n < la else la), last - n"
    " :: 25: n > last -> n >= last": "at n = last both give i0 = 0",
    "exact: i0, i1, j = (n - last if n > last else 0), (n + 1 if n < la else la), last - n"
    " :: 53: n < la -> n <= la": "the a slice may run one past its column's end, where it stops",
    "exact: i0, i1, j = (n - last if n > last else 0), (n + 1 if n < la else la), last - n"
    " :: 48: 1 -> 2": "the one extra a entry has no b partner: the b slice ends at b_0",
    "series: e = chain_convolve(f, rho, r_num, p, q - 1)  # over f_den r_den"
    " :: 37: q - 1 -> q + 1":
        "the two extra entries of e enter only the gcd, which still divides the rest",
    "series: e = int_convolve(f, r_num, p, q - 1) :: 30: q - 1 -> q + 1":
        "the two extra entries of e enter only the gcd, which still divides the rest",
    "series: rho = [x // y for x, y in zip([0] + f, f)] if chain else None :: 31: 0 -> 1":
        "rho[0] only multiplies chain_convolve's initial 0",
    "families: den = 1 :: 6: 1 -> 2": "any common multiple of N+1..N+n serves as D and cancels",
    "families: row = [1] :: 7: 1 -> 2":
        "a doubled row stays doubled under Pascal's rule and cancels in sum / C(w+n, n)",
    "families: if held is None or held.nmax < nmax: :: 19: held.nmax < nmax -> held.nmax <= nmax":
        "an entry of the same length holds the same values",
    "families: return 0, 1 :: 10: 1 -> 2": "off the stride the value is 0 over any denominator",
    "families: acc = (acc + (t if (n - k) % 2 else -t)) * (k + 1) :: 20: n - k -> n + k":
        "n - k and n + k have the same parity",
    "linalg: by_parts = [0] * (m + 1) :: 22: 1 -> 2": "by_parts gains a slot that is never read",
    "linalg: fact = list(accumulate(range(1, m + 1), mul, initial=1)) :: 36: 1 -> 2":
        "fact gains an entry past m! that is never read: no partition of m has more than m parts",
    "closed_forms: powers = _power_chain(w, s * (len(w) - 1)) :: 30: len(w) - 1 -> len(w) + 1":
        "powers past P^{sM} are built and never read: the largest index, sM, reads P^0..P^{sM}",
    "closed_forms: nums, den = numerators(weights[1 : half + 1]) :: 42: 1 -> 2":
        "a longer slice: no part exceeds half, and the extra denominator in A scales every"
        " length's sum and A^half alike",
    "closed_forms: nums.insert(0, 0)  # nums[p] belongs to w_p :: 15: 0 -> 1":
        "nums[0] is never read: every part of a composition is at least 1",
    "closed_forms: prods = [1] * (r + 1)  # prods[i]: product of the first i parts :: 19: 1 -> 2":
        "prods gains a slot that is never read",
    "identities: out, f = [], 1 :: 13: 1 -> 2":
        "every numerator and the denominator gain a factor 2, which the gcd takes out",
    "identities: zeros = ([0] * len(sums), 1) :: 26: 1 -> 2": "0 is 0 over any denominator",
    "identities: nums, den = _ladder(0, 2 * nmax) :: 23: 2 -> 3":
        "a longer table: the product reads it to index 2 nmax",
    "identities: e = _ladder(2 * N, 2 * nmax) :: 19: 2 -> 3":
        "a longer table: the product reads it to index 2 nmax",
    "identities: b, den = table(_BERNOULLI, nmax + 1).column :: 34: 1 -> 2":
        "a longer table: both sides read it to index nmax + 1",
    "identities: b, den = table(_BERNOULLI, 2 * (nmax + 1)).column :: 27: 2 -> 3":
        "a longer table: the right side reads it to index 2 nmax + 2",
    "identities: b, den = table(_BERNOULLI, 2 * (nmax + 1)).column :: 39: 1 -> 2":
        "a longer table: the right side reads it to index 2 nmax + 2",
    "identities: return [offset - k for k in range(nmax + 1)] :: 41: 1 -> 2":
        "a longer weight list: the products read its first nmax + 1 entries",
    "identities: weighted = _scaled(_over_factorials((b, den), nmax),"
    " [i - 1 for i in range(nmax + 1)]) :: 82: 1 -> 2":
        "a longer weight list: the scaled column is as long as the shorter of the two",
    "identities: inv_fact, f_den = _over_factorials(([1] * (nmax + 3), 1), nmax + 2) :: 50: 3 -> 4":
        "a longer column of ones: its first nmax + 3 entries are read",
    "identities: lcm, ps = math.lcm(*range(2, 2 * nmax + 3, 2)),"
    " [4 ** (n + 1) for n in range(nmax + 1)] :: 40: 3 -> 4":
        "any common multiple of 2, 4, ..., 2 nmax + 2 serves as the denominator",
    "identities: lcm, ps = math.lcm(*range(2, 2 * nmax + 3, 2)),"
    " [4 ** (n + 1) for n in range(nmax + 1)] :: 29: 2 -> 3":
        "any common multiple of 2, 4, ..., 2 nmax + 2 serves as the denominator",
    "identities: for k in range(1, 2 * n + 3): :: 15: 1 -> 2":
        "the k = 1 term is 0: -C(1, 0) + C(1, 1)",
    "identities: for k in range(1, 2 * n + 3): :: 18: 2 -> 3":
        "a term past k = 2n + 2 is a k-th difference of a polynomial of degree 2n + 2: 0",
    "identities: for k in range(1, 2 * n + 3): :: 26: 3 -> 4":
        "a term past k = 2n + 2 is a k-th difference of a polynomial of degree 2n + 2: 0",
    "identities: math.comb(k, j) * (-1) ** (j + 1) * (k - 2 * j) ** (2 * n + 2)"
    " for j in range(k + 1) :: 82: 1 -> 2": "the term j = k + 1 has C(k, k + 1) = 0",
    "identities: math.comb(k, j) * (-1) ** (j + 1) * (k - 2 * j) ** (2 * n + 2)"
    " for j in range(k + 1) :: 0: math.comb(k, j) * (-1) ** (j + 1)"
    " -> math.comb(k, j) // (-1) ** (j + 1)":
        "dividing an int by -1 or 1 is multiplying by it",
    "identities: parts[k % 2] += term if k % 4 in (0, 3) else -term :: 37: 3 -> 4":
        "a term of odd k is 0 (j -> k - j negates it), so its sign never matters",
    "identities: order, rng = 2 * nmax + 1, f\"0 <= n <= {nmax}\" :: 24: 1 -> 2":
        "tan to one more power: a zero even coefficient and the same odd ones",
    "identities: signed = [0] * (order + 1) :: 10: 0 -> 1": "only the odd entries are compared",
    "identities: signed = [0] * (order + 1) :: 24: 1 -> 2": "an entry past t^order is never read",
    "identities: fk = [numerators(gen_ratio(k, 2, M)) for k in range(2 * N + 1)] :: 60: 1 -> 2":
        "a ladder series past F_2N is built and never read",
    "identities: fk = [numerators(gen_ratio(k, 2, M)) for k in range(2 * N + 1)] :: 52: 2 -> 3":
        "ladder series past F_2N are built and never read",
    "cli: header = [\"n\"] + [str(n) for n in range(0, TABLE1_NMAX + 1, 2)] :: 57: 1 -> 2":
        "TABLE1_NMAX is even: range(0, TABLE1_NMAX + 2, 2) is range(0, TABLE1_NMAX + 1, 2)",
    "cli: for n in range(0, TABLE1_NMAX + 1, 2): :: 32: 1 -> 2":
        "TABLE1_NMAX is even: range(0, TABLE1_NMAX + 2, 2) is range(0, TABLE1_NMAX + 1, 2)",
    "cli: with ThreadPoolExecutor(max_workers=1) as pool: :: 36: 1 -> 2":
        "the reports are collected in submission order, and families.table is lock-guarded",
}


def mutations(tree):
    """(node, field, mutated value of that field) for every mutation point."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
            yield node, "op", SWAP[type(node.op)]()
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAP:
                    yield node, "ops", [*node.ops[:i], SWAP[type(op)](), *node.ops[i + 1:]]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, "value", node.value + 1


def mutant_key(module, lines, node, before):
    """The key of the mutant that ``node`` now holds; its column is counted
    from the end of the line's indent."""
    line = lines[node.lineno - 1]
    column = node.col_offset - (len(line) - len(line.lstrip()))
    return f"{module}: {line.strip()} :: {column}: {before} -> {ast.unparse(node)}"


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def stop_session(run):
    """Kill every process left in the session that ``run`` leads, and reap it."""
    try:
        os.killpg(run.pid, signal.SIGKILL)
    except ProcessLookupError:  # the session has no process left
        pass
    run.wait()


def check(module, tree_dir):
    path = tree_dir / "src" / "hgnum" / f"{module}.py"
    source = path.read_text()
    lines, tree = source.splitlines(), ast.parse(source)
    tests = [f"tests/{name}" for name in TESTS[module]]
    survivors = []
    for count, (node, field, value) in enumerate(list(mutations(tree)), 1):
        before, old = ast.unparse(node), getattr(node, field)
        setattr(node, field, value)
        key = mutant_key(module, lines, node, before)
        path.write_text(ast.unparse(tree))
        setattr(node, field, old)
        run = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=tree_dir, env=dict(os.environ, PYTHONPATH="src"),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=limit_memory, start_new_session=True,
        )
        try:
            killed = run.wait(timeout=120) != 0
        except subprocess.TimeoutExpired:
            killed = True
        finally:
            stop_session(run)
        if not killed:
            survivors.append(key)
        print(f"{count:4d} {'killed' if killed else 'SURVIVED'}  {key}", flush=True)
    path.write_text(source)
    return survivors


def main(modules):
    with tempfile.TemporaryDirectory() as tmp:
        tree_dir = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree_dir / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        survivors = Counter(key for module in modules for key in check(module, tree_dir))
    problems = [f"unexpected survivor: {key}" for key in survivors if key not in EQUIVALENT]
    problems += [
        f"listed as equivalent, but {survivors[key]} survivors match: {key}"
        for key in EQUIVALENT if key.split(":")[0] in modules and survivors[key] != 1
    ]
    for line in problems:
        print(line)
    return 1 if problems else 0


def terminate(signum, frame):
    sys.exit(128 + signum)


if __name__ == "__main__":
    # SystemExit unwinds through stop_session and removes the temporary tree
    signal.signal(signal.SIGTERM, terminate)
    sys.exit(main(sys.argv[1:] or list(TESTS)))
