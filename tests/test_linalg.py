import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from hgnum.exact import factorial
from hgnum.linalg import hessenberg_det_prefixes, trudi_expand
from helpers import dense_hessenberg


def hessenberg_det(entries):
    """The full-size determinant: the last of the prefix determinants."""
    return hessenberg_det_prefixes(entries)[-1]


def bareiss_det(mat):
    """Fraction-free elimination determinant oracle."""
    n = len(mat)
    m = [row[:] for row in mat]
    sign = 1
    prev = F(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return F(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = F(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def random_entries(rng, m):
    return [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(m)]


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def unit_lower_toeplitz(column):
    n = len(column)
    mat = [[F(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        mat[i][i] = F(1)
        for j in range(i):
            mat[i][j] = column[i - j - 1]
    return mat


class TestHessenbergDet:
    def test_one_by_one(self):
        assert hessenberg_det([F(3, 7)]) == F(3, 7)

    def test_glaisher_euler_two(self):
        entries = [F(1, 2), F(1, 24)]
        det = hessenberg_det(entries)
        assert det == F(5, 24)
        assert factorial(4) * det == 5

    def test_bernoulli_two(self):
        det = hessenberg_det([F(1, 2), F(1, 6)])
        assert det == F(1, 12)
        assert factorial(2) * det == F(1, 6)

    def test_matches_bareiss_oracle(self):
        rng = random.Random(11)
        for m in range(1, 13):
            entries = random_entries(rng, m)
            assert hessenberg_det(entries) == bareiss_det(dense_hessenberg(entries))


# zeros, negatives and denominators with no common structure
entry_lists = st.lists(
    st.one_of(st.just(F(0)), st.builds(F, st.integers(-40, 40), st.integers(1, 60))),
    min_size=1,
    max_size=9,
)


@settings(max_examples=60, deadline=None)
@given(entry_lists)
def test_every_prefix_matches_bareiss_oracle(entries):
    dets = hessenberg_det_prefixes(entries)
    assert dets[0] == 1
    for m in range(1, len(entries) + 1):
        assert dets[m] == bareiss_det(dense_hessenberg(entries[:m]))


class TestTrudiExpand:
    def test_single_partition(self):
        assert trudi_expand([F(5, 3)]) == F(5, 3)

    def test_two_partitions(self):
        a1, a2 = F(2, 3), F(1, 5)
        assert trudi_expand([a1, a2]) == a1 * a1 - a2

    def test_matches_table_value(self):
        # expansion of the size-3 determinant built from the N=1 weights
        entries = [F(2) / factorial(2 + 2 * k) for k in (1, 2, 3)]
        assert trudi_expand(entries) == hessenberg_det(entries)
        assert -factorial(6) * trudi_expand(entries) == F(-5, 42)

    def test_matches_det_randomized(self):
        rng = random.Random(5)
        for m in range(1, 11):
            entries = random_entries(rng, m)
            assert trudi_expand(entries) == hessenberg_det(entries)


def paired(column):
    """The column R(1)..R(n) that the inversion lemma pairs with ``column``:
    the Hessenberg determinants of its leading blocks."""
    return hessenberg_det_prefixes(column)[1:]


class TestToeplitzInverse:
    def test_zero_column(self):
        assert paired([F(0)] * 4) == [F(0)] * 4

    def test_euler_pairing(self):
        col = [F(1) / factorial(2 * k) for k in (1, 2)]
        r = paired(col)
        assert r == [F(1, 2), F(5, 24)]  # (-1)^k E_{2k}/(2k)!

    def test_involution(self):
        # each column is the sequence of Hessenberg determinants of the other
        rng = random.Random(17)
        col = random_entries(rng, 10)
        assert paired(paired(col)) == col

    def test_signed_matrix_inverse_is_identity(self):
        rng = random.Random(23)
        for n in range(1, 13):
            col = random_entries(rng, n)
            r = paired(col)
            # the matrix with the alternating-sign column pairs with the plain
            # determinant column as a genuine matrix inverse
            a = unit_lower_toeplitz([(-1) ** (k + 1) * c for k, c in enumerate(col)])
            b = unit_lower_toeplitz(r)
            prod = mat_mul(a, b)
            for i in range(n + 1):
                for j in range(n + 1):
                    assert prod[i][j] == (1 if i == j else 0)
