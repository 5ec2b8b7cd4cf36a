"""Finite-field linear algebra and two explicit row-independence constructions.

* Vandermonde matrices over a prime field F_q with q > N: any d rows
  are linearly independent (distinct evaluation points).
* Transposed parity-check matrices of binary BCH codes: any
  floor(2d / log2(N + 1)) - 1 rows are linearly independent over F_2,
  via the distance/independence duality for linear codes.

Rank, determinant, and code distance all come from one Gauss-Jordan
elimination over Python integers modulo q, so they are exact for every
prime q (no floats, no fixed-width overflow).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateParameterError,
    EnumerationCapError,
    FieldError,
)

SUBSET_ENUMERATION_CAP = 10 ** 6
NULLSPACE_DIM_CAP = 20

# Primitive polynomials over F_2, x^m + (lower-order terms); bitmask
# includes the leading bit.  Standard minimal-weight choices.
_PRIMITIVE_POLYS = {
    2: 0b111,            # x^2 + x + 1
    3: 0b1011,           # x^3 + x + 1
    4: 0b10011,          # x^4 + x + 1
    5: 0b100101,         # x^5 + x^2 + 1
    6: 0b1000011,        # x^6 + x + 1
    7: 0b10000011,       # x^7 + x + 1
    8: 0b100011101,      # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,     # x^9 + x^4 + 1
    10: 0b10000001001,   # x^10 + x^3 + 1
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class PrimeField:
    """Arithmetic modulo a checked prime q."""

    def __init__(self, q: int):
        if not _is_prime(q):
            raise FieldError(f"q must be prime, got {q}")
        self.q = q

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise FieldError("zero has no inverse")
        return pow(a, self.q - 2, self.q)


class FieldMatrix:
    """Exact matrix over F_q stored as int64 entries in [0, q).

    ``q`` is a prime, or an already-checked ``PrimeField`` so that
    derived matrices skip the prime test.
    """

    def __init__(self, data, q: int | PrimeField):
        self.field = q if isinstance(q, PrimeField) else PrimeField(q)
        self.q = self.field.q
        self.data = np.atleast_2d(np.asarray(data, dtype=np.int64)) % self.q
        self.rows, self.cols = self.data.shape

    def row_submatrix(self, indices) -> "FieldMatrix":
        return FieldMatrix(self.data[list(indices)], self.field)

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.data.T, self.field)

    def rank(self) -> int:
        return len(_row_reduce(self.data.tolist(), self.field)[0])

    def det(self) -> int:
        """Determinant mod q (square matrices only)."""
        if self.rows != self.cols:
            raise FieldError("determinant of a non-square matrix")
        pivots, det = _row_reduce(self.data.tolist(), self.field)
        return det if len(pivots) == self.rows else 0

    def matmul(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.q != other.q:
            raise FieldError("mixed moduli")
        return FieldMatrix((self.data.astype(object) @ other.data.astype(object)) % self.q,
                           self.field)

    def save_csv(self, path) -> None:
        np.savetxt(path, self.data, fmt="%d", delimiter=",")

    @classmethod
    def load_csv(cls, path, q: int) -> "FieldMatrix":
        try:
            data = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: not a CSV of integers ({exc})") from None
        return cls(data, q)

    def __eq__(self, other):
        return (isinstance(other, FieldMatrix) and self.q == other.q
                and np.array_equal(self.data, other.data))


def _row_reduce(rows: list[list[int]], field: PrimeField) -> tuple[list[int], int]:
    """Gauss-Jordan elimination mod q on rows of Python ints, in place.

    Leaves ``rows`` in reduced row echelon form and returns the pivot
    columns and the product of the pivots mod q, negated per row swap:
    the determinant when a square matrix has full rank.
    """
    q = field.q
    pivots: list[int] = []
    det = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            det = -det
        det = det * rows[r][c] % q
        inv = field.inv(rows[r][c])
        pivot = rows[r] = [x * inv % q for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [(x - f * y) % q for x, y in zip(row, pivot)]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots, det


def vandermonde_matrix(n: int, d: int, q: int) -> FieldMatrix:
    """N x d matrix with row i = (1, i, i^2, ..., i^{d-1}) over F_q.

    Requires q >= N so the N evaluation points 1..N stay distinct mod q,
    which makes every d-row submatrix invertible (Vandermonde
    determinant over distinct points).
    """
    if d > n:
        raise ConfigurationError(f"d={d} must not exceed N={n}")
    field = PrimeField(q)  # FieldError on composite q
    if q < n:
        raise ConfigurationError(f"need q >= N for distinct points, got q={q}, N={n}")
    rows = [[pow(i, l, q) for l in range(d)] for i in range(1, n + 1)]
    return FieldMatrix(rows, field)


def vandermonde_det_formula(points, q: int) -> int:
    """prod_{i < j} (x_j - x_i) mod q, the closed-form determinant."""
    det = 1
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            det = det * (pts[j] - pts[i]) % q
    return det % q


def all_k_subsets_independent(matrix: FieldMatrix, k: int,
                              cap: int = SUBSET_ENUMERATION_CAP):
    """Check every k-row subset for full rank k by exact elimination.

    Returns (True, None) or (False, witness) with the first dependent
    index tuple in lexicographic order.
    """
    if k > matrix.rows:
        raise ConfigurationError(f"k={k} exceeds row count {matrix.rows}")
    total = math.comb(matrix.rows, k)
    if total > cap:
        raise EnumerationCapError(
            f"{total} subsets exceed the enumeration cap {cap}",
            required=total, cap=cap)
    for subset in itertools.combinations(range(matrix.rows), k):
        if matrix.row_submatrix(subset).rank() < k:
            return False, subset
    return True, None


class BinaryExtField:
    """F_{2^m} with the polynomial basis and alpha = x primitive.

    Elements are m-bit integers; multiplication reduces by the stored
    primitive polynomial.  Primitivity of alpha is verified at
    construction by checking its multiplicative order is 2^m - 1.
    """

    def __init__(self, m: int):
        if m not in _PRIMITIVE_POLYS:
            raise ConfigurationError(
                f"no stored primitive polynomial for m={m} (have m in 2..10)")
        self.m = m
        self.poly = _PRIMITIVE_POLYS[m]
        self.order = (1 << m) - 1
        if self._alpha_order() != self.order:
            raise ConfigurationError(f"stored polynomial for m={m} is not primitive")

    def mul(self, a: int, b: int) -> int:
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a <<= 1
            if a >> self.m:
                a ^= self.poly
        return result

    def pow(self, a: int, e: int) -> int:
        result = 1
        e %= self.order if a else 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def _alpha_order(self) -> int:
        x, k = 2, 1
        while x != 1:
            x = self.mul(x, 2)
            k += 1
            if k > self.order:
                break
        return k


def bch_parity_check(m: int, s: int) -> FieldMatrix:
    """Parity-check matrix of the binary BCH code with designed distance s.

    Columns are indexed by the N = 2^m - 1 field elements alpha^0 ..
    alpha^{N-1}.  The root constraints c(alpha^j) = 0 for odd j in
    {1, ..., s-1} each expand into m binary rows (the bits of alpha^{j*i}
    in the polynomial basis).  Even powers are dropped: over F_2,
    c(gamma) = 0 iff c(gamma^2) = 0, so their rows are redundant.
    """
    if s - 1 >= (1 << m) - 1:
        raise ConfigurationError(f"designed distance s={s} too large for m={m}")
    if s < 2:
        raise ConfigurationError("designed distance must be >= 2")
    field = BinaryExtField(m)
    n = field.order
    rows = []
    for j in range(1, s):
        if j % 2 == 0:
            continue
        powers = [field.pow(2, j * i) for i in range(n)]
        for bit in range(m):
            rows.append([(p >> bit) & 1 for p in powers])
    return FieldMatrix(rows, 2)


def binary_independence_matrix(n: int, d: int) -> FieldMatrix:
    """N x d binary matrix whose small row subsets are independent.

    Takes K = H^T for the BCH parity check with the minimal m such that
    2^m - 1 >= N, designed distance s = 2*ceil(d/m) + 1, truncated to N
    rows and d columns.  Every floor(2d / log2(N+1)) - 1 rows of K are
    then linearly independent (the code's distance guarantee transfers
    through the transpose).
    """
    if d > n:
        raise ConfigurationError(f"d={d} must not exceed N={n}")
    m = 1
    while (1 << m) - 1 < n:
        m += 1
    m = max(m, 2)
    target = independence_parameter(n, d)
    if target < 1:
        raise DegenerateParameterError(
            f"floor(2d/log2(N+1)) - 1 = {target} < 1: construction is vacuous")
    s = 2 * math.ceil(d / m) + 1
    h = bch_parity_check(m, s)
    k = h.transpose()
    if h.cols < n:
        raise ConfigurationError("internal: BCH length shorter than N")
    return FieldMatrix(k.data[:n, :d], 2)


def independence_parameter(n: int, d: int) -> int:
    """floor(2d / log2(N+1)) - 1, the guaranteed independent-row count."""
    return math.floor(2 * d / math.log2(n + 1)) - 1


def min_code_distance(h: FieldMatrix, dim_cap: int = NULLSPACE_DIM_CAP):
    """Minimum Hamming weight over nonzero codewords of the code with
    parity check H, by enumerating the null space over F_2.

    Returns None for the trivial code (no nonzero codeword).
    """
    if h.q != 2:
        raise FieldError("distance enumeration implemented for binary codes")
    rows = h.data.tolist()
    pivots, _ = _row_reduce(rows, h.field)
    # One basis vector per free column f, as a bitmask: v[f] = 1 and
    # v[p_i] = -R[i][f], which is R[i][f] over F_2.
    free = [c for c in range(h.cols) if c not in pivots]
    basis = [1 << f | sum(rows[i][f] << p for i, p in enumerate(pivots)) for f in free]
    dim = len(basis)
    if dim == 0:
        return None
    if dim > dim_cap:
        raise EnumerationCapError(
            f"null space dimension {dim} exceeds cap {dim_cap}",
            required=dim, cap=dim_cap)
    # Gray-code walk: each step flips one basis vector into or out of the word.
    best, word = h.cols, 0
    for g in range(1, 1 << dim):
        word ^= basis[(g & -g).bit_length() - 1]
        best = min(best, word.bit_count())
    return best
