"""Finite-field linear algebra and the independence constructions."""

import itertools

import numpy as np
import pytest

from attnio import errors
from attnio import fields as F


# -- prime field / matrix basics ------------------------------------------------

def test_prime_field_checks_modulus():
    F.PrimeField(7)
    with pytest.raises(errors.FieldError):
        F.PrimeField(6)


def test_field_inverse():
    f = F.PrimeField(11)
    for a in range(1, 11):
        assert a * f.inv(a) % 11 == 1
    with pytest.raises(errors.FieldError):
        f.inv(0)


def test_rank_exact():
    m = F.FieldMatrix([[1, 2], [2, 4]], 5)
    assert m.rank() == 1
    assert F.FieldMatrix([[1, 0], [0, 1]], 5).rank() == 2
    # rank that floats would get wrong is the point of exact elimination
    big = F.FieldMatrix(np.eye(6, dtype=int) * 4, 5)
    assert big.rank() == 6


def test_det_matches_cofactor_expansion():
    m = F.FieldMatrix([[2, 3], [1, 4]], 7)
    assert m.det() == (2 * 4 - 3 * 1) % 7
    singular = F.FieldMatrix([[1, 2], [2, 4]], 7)
    assert singular.det() == 0


def test_csv_round_trip(tmp_path):
    m = F.FieldMatrix([[1, 2, 3], [4, 5, 6]], 7)
    path = tmp_path / "m.csv"
    m.save_csv(path)
    assert F.FieldMatrix.load_csv(path, 7) == m


def test_csv_round_trip_single_column(tmp_path):
    m = F.FieldMatrix([[1], [2], [3]], 7)
    path = tmp_path / "col.csv"
    m.save_csv(path)
    assert F.FieldMatrix.load_csv(path, 7) == m


def test_load_csv_rejects_non_integer(tmp_path):
    for text in ("1,x\n", "0.5,1\n", "1,2\n3\n"):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(errors.ConfigurationError, match="bad.csv"):
            F.FieldMatrix.load_csv(path, 5)


def _cofactor_det(a):
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


def test_rank_det_exact_above_int64_products():
    # q^2 > 2^63, so the product of two residues overflows int64.
    q = 4294967311
    rng = np.random.default_rng(11)
    for t in range(40):
        a = rng.integers(0, q, (3, 3)).tolist()
        if t % 4 == 0:  # third row a combination of the first two
            x, y = (int(v) for v in rng.integers(0, q, 2))
            a[2] = [(x * u + y * v) % q for u, v in zip(a[0], a[1])]
        m = F.FieldMatrix(a, q)
        det = _cofactor_det(a) % q
        assert m.det() == det
        assert m.rank() == (3 if det else 2)


# -- Vandermonde ---------------------------------------------------------------

def test_vandermonde_shape_and_rows():
    v = F.vandermonde_matrix(5, 2, 7)
    assert (v.rows, v.cols) == (5, 2)
    assert [list(r) for r in v.data] == [[1, i] for i in range(1, 6)]


def test_vandermonde_pairs_independent():
    v = F.vandermonde_matrix(5, 2, 7)
    ok, witness = F.all_k_subsets_independent(v, 2)
    assert ok and witness is None


def test_vandermonde_triples_q17():
    v = F.vandermonde_matrix(8, 3, 17)
    ok, _ = F.all_k_subsets_independent(v, 3)
    assert ok


def test_vandermonde_d1():
    v = F.vandermonde_matrix(4, 1, 5)
    ok, _ = F.all_k_subsets_independent(v, 1)
    assert ok


def test_vandermonde_det_product_formula():
    q = 13
    v = F.vandermonde_matrix(6, 3, q)
    for subset in itertools.combinations(range(6), 3):
        points = [i + 1 for i in subset]
        assert v.row_submatrix(subset).det() == F.vandermonde_det_formula(points, q)


def test_vandermonde_preconditions():
    with pytest.raises(errors.ConfigurationError):
        F.vandermonde_matrix(8, 3, 7)  # q < N
    with pytest.raises(errors.FieldError):
        F.vandermonde_matrix(5, 2, 9)  # composite
    with pytest.raises(errors.ConfigurationError):
        F.vandermonde_matrix(3, 4, 7)  # d > N


# -- subset independence checker ------------------------------------------------

def test_duplicate_row_witness():
    m = F.FieldMatrix([[1, 2], [1, 2], [3, 4]], 5)
    ok, witness = F.all_k_subsets_independent(m, 2)
    assert not ok and witness == (0, 1)


def test_zero_row_witness():
    ok, witness = F.all_k_subsets_independent(F.FieldMatrix([[0, 0]], 5), 1)
    assert not ok and witness == (0,)


def test_subset_check_tests_the_prime_once(monkeypatch):
    # trial division of q = 4294967311 takes milliseconds; submatrices,
    # transposes and products reuse the parent's checked field
    calls = []
    is_prime = F._is_prime
    monkeypatch.setattr(F, "_is_prime", lambda n: calls.append(n) or is_prime(n))
    q = 4294967311
    v = F.vandermonde_matrix(11, 2, q)
    assert F.all_k_subsets_independent(v, 2) == (True, None)
    rows = v.data.tolist()
    rows[7] = [2 * x % q for x in rows[3]]
    dependent = F.FieldMatrix(rows, v.field)
    assert F.all_k_subsets_independent(dependent, 2) == (False, (3, 7))
    assert v.matmul(v.transpose()).rank() == 2
    assert calls == [q]


def test_subset_enumeration_cap():
    m = F.FieldMatrix(np.ones((40, 2), dtype=int), 5)
    with pytest.raises(errors.EnumerationCapError):
        F.all_k_subsets_independent(m, 20, cap=1000)


# -- binary extension field -----------------------------------------------------

def test_ext_field_primitivity_all_degrees():
    for m in range(2, 11):
        field = F.BinaryExtField(m)
        assert field._alpha_order() == (1 << m) - 1


def test_ext_field_arithmetic_gf8():
    f = F.BinaryExtField(3)  # x^3 + x + 1
    # alpha^3 = alpha + 1 -> 0b011
    assert f.pow(2, 3) == 0b011
    assert f.mul(0b011, 0b011) == f.pow(2, 6)


def test_ext_field_unknown_degree():
    with pytest.raises(errors.ConfigurationError):
        F.BinaryExtField(11)


# -- BCH ------------------------------------------------------------------------

def test_bch_15_7_5():
    h = F.bch_parity_check(4, 5)
    assert h.cols == 15 and h.rows <= 8
    assert 15 - h.rank() >= 7  # dimension bound
    assert F.min_code_distance(h) == 5
    ok, _ = F.all_k_subsets_independent(h.transpose(), 4)
    assert ok  # all C(15,4) = 1365 column subsets


def test_hamming_7_4():
    h = F.bch_parity_check(3, 3)
    assert h.cols == 7 and h.rows <= 3
    assert F.min_code_distance(h) == 3


def test_bch_even_power_rows_redundant():
    h = F.bch_parity_check(4, 5)
    field = F.BinaryExtField(4)
    extra = []
    for j in (2, 4):
        powers = [field.pow(2, j * i) for i in range(15)]
        for bit in range(4):
            extra.append([(p >> bit) & 1 for p in powers])
    augmented = F.FieldMatrix(np.vstack([h.data, np.array(extra)]), 2)
    assert augmented.rank() == h.rank()


def test_bch_distance_independence_duality():
    for m, s in [(3, 3), (4, 5)]:
        h = F.bch_parity_check(m, s)
        dist = F.min_code_distance(h)
        cols = h.transpose()
        ok, _ = F.all_k_subsets_independent(cols, dist - 1)
        assert ok
        dep_exists, _ = F.all_k_subsets_independent(cols, dist)
        assert not dep_exists


def test_bch_preconditions():
    with pytest.raises(errors.ConfigurationError):
        F.bch_parity_check(3, 8)  # s - 1 >= 2^m - 1
    with pytest.raises(errors.ConfigurationError):
        F.bch_parity_check(4, 1)


# -- binary independence matrix ---------------------------------------------------

def test_binary_independence_n15_d8():
    k = F.binary_independence_matrix(15, 8)
    assert (k.rows, k.cols) == (15, 8)
    assert F.independence_parameter(15, 8) == 3
    ok, _ = F.all_k_subsets_independent(k, 3)
    assert ok


def test_binary_independence_n7_d3():
    k = F.binary_independence_matrix(7, 3)
    assert F.independence_parameter(7, 3) == 1
    ok, _ = F.all_k_subsets_independent(k, 1)
    assert ok  # all rows nonzero


def test_binary_independence_transpose_relation():
    # rows of K are columns of the BCH parity check it came from
    k = F.binary_independence_matrix(15, 8)
    h = F.bch_parity_check(4, 5)
    assert np.array_equal(k.data, h.data.T[:15, :8])


def test_binary_independence_degenerate():
    with pytest.raises(errors.DegenerateParameterError):
        F.binary_independence_matrix(15, 2)


# -- distance edge cases ----------------------------------------------------------

def test_trivial_code_distance_none():
    ident = F.FieldMatrix(np.eye(4, dtype=int), 2)
    assert F.min_code_distance(ident) is None


def test_distance_cap():
    h = F.FieldMatrix(np.zeros((1, 25), dtype=int), 2)
    with pytest.raises(errors.EnumerationCapError):
        F.min_code_distance(h)


# Minimum distances of every BCH(m, s) with m <= 5, pinned from the
# enumeration before it shared the Gauss-Jordan reduction with rank.
# BCH(5, s) for s <= 5 has a null space above the dimension cap.
BCH_DISTANCES = {
    (2, 2): 3, (2, 3): 3,
    (3, 2): 3, (3, 3): 3, (3, 4): 7, (3, 5): 7, (3, 6): 7, (3, 7): 7,
    (4, 2): 3, (4, 3): 3, (4, 4): 5, (4, 5): 5, (4, 6): 7, (4, 7): 7,
    **{(4, s): 15 for s in range(8, 16)},
    (5, 6): 7, (5, 7): 7, (5, 8): 11, (5, 9): 11, (5, 10): 11, (5, 11): 11,
    (5, 12): 15, (5, 13): 15, (5, 14): 15, (5, 15): 15,
    **{(5, s): 31 for s in range(16, 32)},
}


def test_bch_distances_pinned():
    for m in range(2, 6):
        for s in range(2, 1 << m):
            h = F.bch_parity_check(m, s)
            if (m, s) in BCH_DISTANCES:
                assert F.min_code_distance(h) == BCH_DISTANCES[(m, s)], (m, s)
            else:
                with pytest.raises(errors.EnumerationCapError):
                    F.min_code_distance(h)
