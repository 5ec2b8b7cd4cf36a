"""Finite-field linear algebra and the independence constructions."""

import itertools
import math
import warnings

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


def test_det_of_swaps_with_unit_pivots_is_reduced_mod_q():
    # every pivot is 1, so only the row swaps set the sign
    assert F.FieldMatrix([[0, 1], [1, 0]], 7).det() == 6
    assert F.FieldMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 5).det() == 4
    assert F.FieldMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 5).det() == 1


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


def test_subset_check_k_domain():
    m = F.FieldMatrix([[1, 2], [1, 2], [3, 4]], 5)
    assert F.all_k_subsets_independent(m, 0) == (True, None)
    for k in (-1, -3, 4):
        with pytest.raises(errors.ConfigurationError, match=f"k={k} must be in 0..3"):
            F.all_k_subsets_independent(m, k)


@pytest.mark.parametrize("n, d", [(5, 0), (5, -1), (3, 4)])
def test_vandermonde_refuses_d_outside_one_to_n(n, d):
    with pytest.raises(errors.ConfigurationError, match=f"d={d} must be in 1..N={n}"):
        F.vandermonde_matrix(n, d, 7)


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


def subsets_independent_reference(matrix, k):
    """The per-subset form: one rank per k-subset, in lexicographic order."""
    for subset in itertools.combinations(range(matrix.rows), k):
        if matrix.row_submatrix(subset).rank() < k:
            return False, subset
    return True, None


def test_subset_check_matches_per_subset_ranks():
    rng = np.random.default_rng(808)
    dependent = 0
    for t in range(360):
        q = (2, 3, 5, 7, 4294967311)[t % 5]
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        # small entries, and now and then a multiple of an earlier row,
        # make dependent subsets common even for the large prime
        data = rng.integers(0, min(q, 3 + t % 3 * q), size=(rows, cols)).tolist()
        if t % 4 == 0 and rows > 2:
            a, b = sorted(rng.choice(rows, size=2, replace=False))
            scale = int(rng.integers(1, q))
            data[b] = [x * scale % q for x in data[a]]
        matrix = F.FieldMatrix(data, q)
        k = int(rng.integers(0, min(rows, cols + 1) + 1))
        got = F.all_k_subsets_independent(matrix, k)
        assert got == subsets_independent_reference(matrix, k), (t, q, data, k)
        dependent += not got[0]
    assert dependent >= 100


@pytest.mark.parametrize("q", [2, 3, 5, 29, 2 ** 31 - 1])
def test_subset_check_matches_brute_force_for_every_k(q):
    # the basis extension against per-subset FieldMatrix.rank, for k = 1
    # up to k = rows on each of 64 seeded matrices per field
    rng = np.random.default_rng(q % 1000)
    dependent = 0
    for t in range(64):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        data = rng.integers(0, min(q, 2 + t % 4), size=(rows, cols)).tolist()
        if t % 3 == 0 and rows > 1:
            a, b = rng.choice(rows, size=2, replace=False)
            data[b] = list(data[a])
        matrix = F.FieldMatrix(data, q)
        for k in range(1, rows + 1):
            got = F.all_k_subsets_independent(matrix, k)
            assert got == subsets_independent_reference(matrix, k), (q, data, k)
            dependent += not got[0]
    assert dependent >= 64


def test_subset_check_matches_brute_force_on_vandermonde_and_k5():
    # the bench's Vandermonde(13, 4, 29), independent, and that matrix with
    # a late row made dependent; then k = 5 on 5 to 9 rows per field
    v = F.vandermonde_matrix(13, 4, 29)
    assert F.all_k_subsets_independent(v, 4) == subsets_independent_reference(v, 4) == (True, None)
    rows = v.data.tolist()
    rows[11] = [(2 * x + 3 * y + z) % 29 for x, y, z in zip(rows[4], rows[7], rows[9])]
    late = F.FieldMatrix(rows, v.field)
    assert F.all_k_subsets_independent(late, 4) == subsets_independent_reference(late, 4)
    rng = np.random.default_rng(55)
    for t in range(60):
        q = (2, 3, 5, 29, 2 ** 31 - 1)[t % 5]
        n, cols = int(rng.integers(5, 10)), int(rng.integers(5, 7))
        data = rng.integers(0, min(q, 2 + t % 5), size=(n, cols)).tolist()
        matrix = F.FieldMatrix(data, q)
        got = F.all_k_subsets_independent(matrix, 5)
        assert got == subsets_independent_reference(matrix, 5), (q, data)


@pytest.mark.parametrize("q", [11, 29])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_subset_check_finds_a_dependency_at_each_depth(q, k):
    # every k rows of a Vandermonde matrix are independent; row r is then
    # set to a combination of s - 1 earlier rows (zero for s = 1), so only
    # subsets holding r can depend.  The walk first meets a dependent row
    # at r's place in the witness, which is depth s when r = s - 1.
    rng = np.random.default_rng(q * 10 + k)
    depths = set()
    for s in range(1, k + 1):
        for trial in range(8):
            n = int(rng.integers(k + 1, 10))
            rows = F.vandermonde_matrix(n, k, q).data
            r = s - 1 if trial == 0 else int(rng.integers(s - 1, n))
            support = rng.choice(r, size=s - 1, replace=False) if r else []
            rows[r] = sum(int(rng.integers(1, q)) * rows[a] for a in support) % q
            matrix = F.FieldMatrix(rows, q)
            got = F.all_k_subsets_independent(matrix, k)
            assert got == subsets_independent_reference(matrix, k), (q, k, s, rows)
            assert not got[0] and r in got[1]
            depths.add(got[1].index(r) + 1)
    assert depths == set(range(1, k + 1))


def test_subset_enumeration_cap():
    m = F.FieldMatrix(np.ones((40, 2), dtype=int), 5)
    with pytest.raises(errors.EnumerationCapError):
        F.all_k_subsets_independent(m, 20, cap=1000)


# -- binary extension field -----------------------------------------------------

def test_ext_field_primitivity_all_degrees():
    for m in range(2, 11):
        field = F.BinaryExtField(m)
        # alpha^0 .. alpha^(2^m - 2) are the nonzero elements, each once
        assert sorted(field.powers) == list(range(1, 1 << m))


@pytest.mark.parametrize("poly", [0b11111, 0b10001], ids=["alpha_order_5", "reducible"])
def test_ext_field_refuses_non_primitive_polynomial(monkeypatch, poly):
    monkeypatch.setitem(F._PRIMITIVE_POLYS, 4, poly)
    with pytest.raises(errors.ConfigurationError, match="m=4 is not primitive"):
        F.BinaryExtField(4)


def _bit_serial_mul(a, b, m, poly):
    """Carry-less shift-and-add product reduced by ``poly``: the reference."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return result


def _square_and_multiply(a, e, m, poly):
    """a^e for a != 0 by square-and-multiply on the reference product."""
    result, e = 1, e % ((1 << m) - 1)  # a^(2^m - 1) = 1
    while e:
        if e & 1:
            result = _bit_serial_mul(result, a, m, poly)
        a = _bit_serial_mul(a, a, m, poly)
        e >>= 1
    return result


@pytest.mark.parametrize("m", range(2, 11))
def test_ext_field_matches_bit_serial_reference(m):
    # the table bch_parity_check reads: alpha^i for every i < 2^m - 1
    field = F.BinaryExtField(m)
    assert len(field.powers) == field.order
    for i, power in enumerate(field.powers):
        assert power == _square_and_multiply(2, i, m, field.poly), i


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
        powers = [field.powers[j * i % 15] for i in range(15)]
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


def test_distance_cap_counts_codewords():
    for dim in range(21, 26):
        h = F.FieldMatrix(np.zeros((1, dim), dtype=int), 2)
        with pytest.raises(errors.EnumerationCapError) as exc:
            F.min_code_distance(h)
        assert (exc.value.required, exc.value.cap) == (2 ** dim, 2 ** 20)
    # [1 1 0] has a null space of dimension 2: 4 codewords
    assert F.min_code_distance(F.FieldMatrix([[1, 1, 0]], 2), cap=4) == 1
    with pytest.raises(errors.EnumerationCapError):
        F.min_code_distance(F.FieldMatrix([[1, 1, 0]], 2), cap=3)


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


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 5) if F._is_prime(n)] == \
        [n for n in range(10 ** 5) if _trial_division(n)]


def test_is_prime_rejects_carmichael_numbers():
    assert not F._is_prime(561) and not F._is_prime(41041)


def test_prime_field_accepts_mersenne_61():
    assert F.PrimeField(2 ** 61 - 1).q == 2 ** 61 - 1


def test_field_matrix_rejects_q_beyond_int64_before_the_prime_test(monkeypatch):
    calls = []
    monkeypatch.setattr(F, "_is_prime", lambda n: calls.append(n) or True)
    for q in (2 ** 63, 2 ** 64 + 13):
        with pytest.raises(errors.FieldError, match="2\\^63"):
            F.FieldMatrix([[1]], q)
    assert calls == []


def test_load_csv_rejects_empty_file(tmp_path):
    for text in ("", "\n"):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.ConfigurationError, match="empty.csv: empty"):
                F.FieldMatrix.load_csv(path, 5)
