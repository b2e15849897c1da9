"""Request lists for the benchmark workloads, generated from a seed.

Every request is a dict holding the ``argv`` passed to ``hgnum.cli.main`` and
what the checker needs to judge its output.  The same (workload, seed) always
gives the same list.

Request sizes sit on fixed, evenly spaced levels; the seed decides which
family, N and method is paired with which level, and the order.  Request cost
grows steeply with the index bound (roughly its cube for the series routes,
exponentially for the composition routes) and the request times of a pass
span two orders of magnitude, so sizes drawn at random would move a run's
total work and its median request by more than the benchmark's bounds from
one seed to the next.
"""

from __future__ import annotations

import random

EULER = ("hg-euler", "comp-hg-euler")
RECIPROCAL = ("hg-bernoulli", "hg-cauchy")
FAMILIES = EULER + RECIPROCAL

# Every method ``compute --method all`` runs for a family, in the order the
# CLI prints them (it sorts records by method name).
ALL_METHODS = {
    family: ("binomial", "det", "explicit", "recurrence", "series", "trudi") for family in EULER
}
ALL_METHODS.update({family: ("det", "recurrence", "series", "trudi") for family in RECIPROCAL})

TABLE_N_MAX = 24
TABLE_MAX_N = (60, 200)
TABLE_BLOCK = 5

ROUTE_N_MAX = 6
# (families, method, requests, lowest --max-n, highest --max-n): the grid of
# acceptance criterion 5, cut to what one request answers in under a second.
ROUTE_PLAN = (
    (EULER, "explicit", 12, 4, 26),
    (EULER, "binomial", 12, 4, 26),
    (EULER, "trudi", 12, 14, 36),
    (EULER, "det", 12, 14, 80),
    (EULER, "all", 12, 2, 24),
    (RECIPROCAL, "det", 12, 5, 60),
    (RECIPROCAL, "trudi", 12, 5, 60),
    (RECIPROCAL, "all", 16, 4, 60),
)

VERIFY_PER_SUITE = 9
# suite -> (lowest --max-n, highest --max-n), around each suite's CLI default.
VERIFY_PLAN = {
    "euler-pair-sum": (10, 30),
    "e1-bernoulli": (30, 90),
    "bernoulli-lemma": (15, 45),
    "tangent": (6, 18),
    "tangent-complex": (4, 12),
    "tan-maclaurin": (6, 18),
    "sumprod-pair": (15, 45),
    "sumprod-pair-comp": (15, 45),
    "sumprod-trinomial": (8, 20),
    "sumprod-trinomial-comp": (8, 20),
    "series-identities": (16, 40),
}


def min_N(family: str) -> int:
    return 0 if family in EULER else 1


def compute_request(family: str, N: int, max_n: int, method: str) -> dict:
    return {
        "kind": "compute",
        "argv": [
            "compute", "--family", family, "--N", str(N), "--max-n", str(max_n),
            "--method", method,
        ],
        "family": family,
        "N": N,
        "max_n": max_n,
        "methods": list(ALL_METHODS[family]) if method == "all" else [method],
    }


def verify_request(suite: str, max_n: int) -> dict:
    return {
        "kind": "verify",
        "argv": ["verify", "--suite", suite, "--max-n", str(max_n)],
        "suite": suite,
        "max_n": max_n,
    }


def table1_request() -> dict:
    return {"kind": "table1", "argv": ["table1"]}


def levels(lo: int, hi: int, k: int) -> list[int]:
    """k evenly spaced values from lo to hi."""
    if k == 1:
        return [hi]
    return [lo + round(i * (hi - lo) / (k - 1)) for i in range(k)]


def balanced(choices, k: int, rng: random.Random) -> list:
    """k picks from ``choices``: shuffled copies of the whole list laid end to
    end, so any run of len(choices) consecutive picks uses each choice once."""
    out: list = []
    while len(out) < k:
        out.extend(rng.sample(list(choices), len(choices)))
    return out[:k]


def _tables(rng: random.Random) -> list[dict]:
    # Every (family, N) with N <= 24 exactly once.  Each family gets one size
    # per level, with recurrence and series alternating along the levels, and
    # the levels are dealt so that each block of five consecutive N gets one
    # from each fifth of the range: the mix of small and large tables, and of
    # methods, is then the same for every family and every seed.
    out = []
    for family in FAMILIES:
        Ns = list(range(min_N(family), TABLE_N_MAX + 1))
        sizes = levels(*TABLE_MAX_N, len(Ns))
        method = {size: ("recurrence", "series")[i % 2] for i, size in enumerate(sizes)}
        blocks = [Ns[i:i + TABLE_BLOCK] for i in range(0, len(Ns), TABLE_BLOCK)]
        hands: list[list[int]] = [[] for _ in blocks]
        for start in range(0, len(sizes), len(blocks)):
            stratum = sizes[start:start + len(blocks)]
            rng.shuffle(stratum)
            for hand, size in zip(hands, stratum):
                hand.append(size)
        for block, hand in zip(blocks, hands):
            rng.shuffle(hand)
            out.extend(
                compute_request(family, N, size, method[size]) for N, size in zip(block, hand)
            )
    return out


def _routes(rng: random.Random) -> list[dict]:
    out = []
    for families, method, k, lo, hi in ROUTE_PLAN:
        sizes = levels(lo, hi, k)
        fams = balanced(families, k, rng)
        Ns = balanced(range(min_N(families[0]), ROUTE_N_MAX + 1), k, rng)
        out.extend(
            compute_request(family, N, max_n, method)
            for family, N, max_n in zip(fams, Ns, sizes)
        )
    return out


def _verify(rng: random.Random) -> list[dict]:
    out = [table1_request()]
    for suite, (lo, hi) in VERIFY_PLAN.items():
        out.extend(verify_request(suite, m) for m in levels(lo, hi, VERIFY_PER_SUITE))
    return out


GENERATORS = {"tables": _tables, "routes": _routes, "verify": _verify}


def generate(workload: str, seed: int) -> list[dict]:
    """The request list of ``workload`` for ``seed``, in the order it is sent."""
    rng = random.Random(f"{workload}/{seed}")
    requests = GENERATORS[workload](rng)
    rng.shuffle(requests)
    return requests
