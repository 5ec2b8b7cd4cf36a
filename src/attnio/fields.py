"""Finite-field linear algebra and two explicit row-independence constructions.

* Vandermonde matrices over a prime field F_q with q > N: any d rows
  are linearly independent (distinct evaluation points).
* Transposed parity-check matrices of binary BCH codes: any
  floor(2d / log2(N + 1)) - 1 rows are linearly independent over F_2,
  via the distance/independence duality for linear codes.  Their
  GF(2^m) arithmetic reads one table of powers of alpha, built and
  checked for primitivity when a ``BinaryExtField`` is constructed.

Rank, determinant, and code distance all come from one Gauss-Jordan
elimination over Python integers modulo q, so they are exact for every
prime q (no floats, no fixed-width overflow).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateParameterError,
    FieldError,
    check_enumeration,
)

SUBSET_ENUMERATION_CAP = 10 ** 6
CODEWORD_ENUMERATION_CAP = 2 ** 20

# The first 12 primes: as Miller-Rabin bases they decide primality
# exactly for every n < 3.18 * 10^23 (Sorenson and Webster, 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

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
    """Deterministic Miller-Rabin over ``_WITNESSES``."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def read_int_csv(path) -> np.ndarray:
    """A comma-separated file of integers as a 2-D int64 array.

    Content that is not all integers, or a file with no rows, raises
    ``ConfigurationError`` naming the file.
    """
    try:
        with warnings.catch_warnings():
            # numpy warns, rather than raises, on a file with no data
            warnings.simplefilter("error", UserWarning)
            return np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: not a CSV of integers ({exc})") from None
    except UserWarning:
        raise ConfigurationError(f"{path}: empty, no rows of integers") from None


class PrimeField:
    """Arithmetic modulo a checked prime q.

    ``FieldMatrix`` stores entries as int64, so q must be below 2^63;
    that is checked before the prime test.
    """

    def __init__(self, q: int):
        if q >= 2 ** 63:
            raise FieldError(f"q must be below 2^63 (entries are int64), got {q}")
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
        return cls(read_int_csv(path), q)

    def __eq__(self, other):
        return (isinstance(other, FieldMatrix) and self.q == other.q
                and np.array_equal(self.data, other.data))


def _row_reduce(rows: list[list[int]], field: PrimeField) -> tuple[list[int], int]:
    """Gauss-Jordan elimination mod q on rows of Python ints, in place.

    Leaves ``rows`` in reduced row echelon form and returns the pivot
    columns and the product of the pivots mod q, negated per row swap:
    the determinant when a square matrix has full rank.  A pivot row
    whose pivot is already 1 is not rescaled, so rows that are already
    reduced pass through without an inversion.  Rows are replaced, never
    mutated, so callers may share row lists between calls.
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
        lead = rows[r][c]
        det = det * lead % q
        if lead != 1:
            inv = field.inv(lead)
            rows[r] = [x * inv % q for x in rows[r]]
        pivot = rows[r]
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
    if not 1 <= d <= n:
        raise ConfigurationError(f"d={d} must be in 1..N={n}")
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
    index tuple in lexicographic order.  A depth-first walk over
    increasing index prefixes, in lexicographic order, carries with each
    prefix the rows after its last index, reduced against the prefix's
    basis: against its first pivot (pivot column, row scaled to pivot 1),
    then its second, and so on, which leaves each row zero in every pivot
    column.  A zero row depends on the prefix.  Otherwise its first
    nonzero column and its scaled form are the next pivot, and the rows
    after it go with the extended prefix once reduced against that pivot
    alone: each row is reduced once per pivot, not against the whole
    basis at every prefix.  The first dependent prefix, completed by the
    next smallest indices, is the lexicographically first dependent
    k-subset, since every subset before it was reached and found
    independent.  ``_row_reduce`` (behind ``FieldMatrix.rank``) is not
    used.  ``cap`` bounds the subsets checked, C(rows, k).
    """
    if not 0 <= k <= matrix.rows:
        raise ConfigurationError(f"k={k} must be in 0..{matrix.rows} (the row count)")
    check_enumeration(math.comb(matrix.rows, k), cap, "subsets")
    q, inv, n = matrix.q, matrix.field.inv, matrix.rows

    def extend(prefix: tuple, later: list) -> tuple | None:
        """The walk below ``prefix``; ``later`` holds the rows after its
        last index, reduced against its basis."""
        j = len(prefix)
        start = prefix[-1] + 1 if prefix else 0
        for i, row in enumerate(later[:n - k + j + 1 - start], start):
            for c, x in enumerate(row):
                if x:
                    break
            else:
                return prefix + tuple(range(i, i + k - j))
            if j + 1 < k:
                s = inv(row[c])
                pivot = [x * s % q for x in row]
                rest = [[(x - f * y) % q for x, y in zip(r, pivot)] if (f := r[c]) else r
                        for r in later[i - start + 1:]]
                witness = extend(prefix + (i,), rest)
                if witness:
                    return witness
        return None

    witness = extend((), matrix.data.tolist()) if k else None
    return (False, witness) if witness else (True, None)


class BinaryExtField:
    """F_{2^m} with the polynomial basis and alpha = x primitive.

    Elements are the integers 0 .. 2^m - 1 (bit i is the coefficient of
    x^i).  ``powers`` holds alpha^0 .. alpha^(2^m - 2), built by one walk
    that multiplies by x (shift, then reduce by the stored polynomial).
    The walk is the primitivity check: it must visit every nonzero
    element once and return to 1 after exactly 2^m - 1 steps.
    """

    def __init__(self, m: int):
        if m not in _PRIMITIVE_POLYS:
            raise ConfigurationError(
                f"no stored primitive polynomial for m={m} (have m in 2..10)")
        self.m = m
        self.poly = poly = _PRIMITIVE_POLYS[m]
        self.order = n = (1 << m) - 1
        powers = [1]
        for _ in range(n):
            x = powers[-1] << 1
            powers.append(x ^ poly if x >> m else x)
        # n distinct nonzero m-bit values are exactly 1..n
        if powers.pop() != 1 or len(set(powers)) != n:
            raise ConfigurationError(f"stored polynomial for m={m} is not primitive")
        self.powers = tuple(powers)


def bch_parity_check(m: int, s: int) -> FieldMatrix:
    """Parity-check matrix of the binary BCH code with designed distance s.

    Columns are indexed by the N = 2^m - 1 field elements alpha^0 ..
    alpha^{N-1}.  The root constraints c(alpha^j) = 0 for odd j in
    {1, ..., s-1} each expand into m binary rows (the bits of alpha^{j*i}
    in the polynomial basis).  Even powers are dropped: over F_2,
    c(gamma) = 0 iff c(gamma^2) = 0, so their rows are redundant.
    """
    field = BinaryExtField(m)
    n = field.order
    if s - 1 >= n:
        raise ConfigurationError(f"designed distance s={s} too large for m={m}")
    if s < 2:
        raise ConfigurationError("designed distance must be >= 2")
    powers, i = np.array(field.powers), np.arange(n)
    return FieldMatrix([powers[j * i % n] >> bit & 1
                        for j in range(1, s, 2) for bit in range(m)], 2)


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
    m = max(math.ceil(math.log2(n + 1)), 2)
    target = independence_parameter(n, d)
    if target < 1:
        raise DegenerateParameterError(
            f"floor(2d/log2(N+1)) - 1 = {target} < 1: construction is vacuous")
    k = bch_parity_check(m, 2 * math.ceil(d / m) + 1).transpose()
    return FieldMatrix(k.data[:n, :d], 2)


def independence_parameter(n: int, d: int) -> int:
    """floor(2d / log2(N+1)) - 1, the guaranteed independent-row count."""
    return math.floor(2 * d / math.log2(n + 1)) - 1


def min_code_distance(h: FieldMatrix, cap: int = CODEWORD_ENUMERATION_CAP):
    """Minimum Hamming weight over nonzero codewords of the code with
    parity check H, by enumerating the null space over F_2.

    Returns None for the trivial code (no nonzero codeword).  ``cap``
    bounds the codewords enumerated, 2^(null space dimension).
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
    check_enumeration(1 << dim, cap, "codewords")
    # Gray-code walk: each step flips one basis vector into or out of the word.
    best, word = h.cols, 0
    for g in range(1, 1 << dim):
        word ^= basis[(g & -g).bit_length() - 1]
        best = min(best, word.bit_count())
    return best
