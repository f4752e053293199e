"""Dense linear algebra over prime fields F_q.

Elements are plain integers reduced mod q; :class:`FieldMatrix` stores a
row-major tuple of them together with the shared modulus.  Everything here
is exact; matrices are never mutated in place by the public operations.
There is one row reduction, :func:`reduce_row`, which reduces a row against
a semi-echelon basis: row bases, ranks, solves and inverses here, and the
rank sweep of ``entropy.LinearSource``, are all built on it.
"""

from __future__ import annotations

from .errors import Inconsistent, ModulusMismatch


MODULUS_LIMIT = 1 << 64        # field moduli must be primes below this
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin over the primes 2..37: exact below 3.18e23."""
    if q < 2:
        return False
    for p in _WITNESSES:
        if q % p == 0:
            return q == p
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def is_field_modulus(q: int) -> bool:
    """A prime below MODULUS_LIMIT, the moduli the package computes over."""
    return q < MODULUS_LIMIT and is_prime(q)


class FieldMatrix:
    """Immutable r x c matrix over F_q, entries in [0, q); the constructor rejects non-integers."""

    __slots__ = ("rows", "cols", "q", "_data")

    def __init__(self, rows: int, cols: int, entries, q: int):
        if not is_field_modulus(q):
            raise ModulusMismatch(f"modulus {q} is not a prime below 2^64")
        entries = list(entries)
        if bad := [x for x in entries if int(x) != x]:
            raise ValueError(f"entry {bad[0]!r} is not an integer")
        data = tuple([int(x) % q for x in entries])
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows, self.cols, self.q, self._data = rows, cols, q, data

    @classmethod
    def _of(cls, rows: int, cols: int, data: tuple, q: int) -> "FieldMatrix":
        """Matrix of a row-major tuple of ``rows * cols`` entries already in [0, q), unchecked."""
        m = object.__new__(cls)
        m.rows, m.cols, m.q, m._data = rows, cols, q, data
        return m

    @classmethod
    def from_rows(cls, row_lists, q: int, cols: int | None = None) -> "FieldMatrix":
        """Matrix of the given rows; each must have ``cols`` entries.

        ``cols`` defaults to the length of the first row (0 without rows).
        A row of another length raises ValueError: rows are never reshaped.
        """
        row_lists = [list(r) for r in row_lists]
        if cols is None:
            cols = len(row_lists[0]) if row_lists else 0
        for i, r in enumerate(row_lists):
            if len(r) != cols:
                raise ValueError(f"row {i} has {len(r)} entries, expected {cols}")
        return cls(len(row_lists), cols, [x for r in row_lists for x in r], q)

    @classmethod
    def identity(cls, n: int, q: int) -> "FieldMatrix":
        return cls._of(n, n, tuple([1 if i == j else 0 for i in range(n) for j in range(n)]), q)

    @classmethod
    def zeros(cls, rows: int, cols: int, q: int) -> "FieldMatrix":
        return cls._of(rows, cols, (0,) * (rows * cols), q)

    def __getitem__(self, idx):
        i, j = idx
        return self._data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._data[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return self._data[j::self.cols]

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, FieldMatrix) and self.q == other.q
                and self.rows == other.rows and self.cols == other.cols
                and self._data == other._data)

    def __repr__(self):
        return f"FieldMatrix({self.rows}x{self.cols} over F_{self.q})"

    def _check_same_field(self, other: "FieldMatrix"):
        if self.q != other.q:
            raise ModulusMismatch(f"mixed moduli {self.q} and {other.q}")

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix._of(
            self.cols, self.rows,
            tuple([self[i, j] for j in range(self.cols) for i in range(self.rows)]),
            self.q)

    def stack(self, other: "FieldMatrix") -> "FieldMatrix":
        """Vertical concatenation [self; other]."""
        self._check_same_field(other)
        if self.cols != other.cols:
            raise ValueError("column mismatch in stack")
        return FieldMatrix._of(self.rows + other.rows, self.cols,
                               self._data + other._data, self.q)

    def matmul(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        q = self.q
        out = []
        ot = other.transpose()
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                cj = ot.row(j)
                out.append(sum(a * b for a, b in zip(ri, cj)) % q)
        return FieldMatrix._of(self.rows, other.cols, tuple(out), q)

    def select_columns(self, indices) -> "FieldMatrix":
        indices = list(indices)
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            out.extend(ri[j] for j in indices)
        return FieldMatrix._of(self.rows, len(indices), tuple(out), self.q)

    def mat_vec(self, vec) -> list:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        q = self.q
        return [sum(a * b for a, b in zip(self.row(i), vec)) % q
                for i in range(self.rows)]


def reduce_row(basis, row, q: int):
    """``row`` reduced by a semi-echelon basis and scaled to 1 at its first nonzero column.

    ``basis`` holds (pivot column, row) pairs in order; each row is 1 at its
    pivot and 0 at the pivots of the rows before it, so one subtraction per
    pivot reduces ``row``.  Returns the (pivot, reduced row) pair that
    extends the basis, or None when ``row`` lies in its span.  Neither
    ``basis`` nor ``row`` is mutated.
    """
    for c, b in basis:
        f = row[c]
        if f:
            row = [(x - f * y) % q for x, y in zip(row, b)]
    pivot = next((c for c, x in enumerate(row) if x), None)
    if pivot is None:
        return None
    inv = pow(row[pivot], -1, q)
    return pivot, [x * inv % q for x in row]


def row_basis(rows, q: int) -> list:
    """Indices of the greedy row basis: each row not in the span of the rows before it.

    ``rows`` are sequences of field elements in [0, q), eliminated as given
    by :func:`reduce_row` against the basis rows kept so far; a row is kept
    when something nonzero is left.  The scan stops once the basis spans
    all of F_q^cols.
    """
    kept, basis = [], []
    for k, row in enumerate(rows):
        reduced = reduce_row(basis, row, q)
        if reduced is None:
            continue
        basis.append(reduced)
        kept.append(k)
        if len(kept) == len(row):
            break
    return kept


def independent_rows(m: FieldMatrix) -> list:
    """Indices of the greedy row basis of m (see :func:`row_basis`)."""
    return row_basis([m.row(i) for i in range(m.rows)], m.q)


def rank(m: FieldMatrix) -> int:
    """Size of the greedy row basis; the input matrix is not mutated."""
    return len(independent_rows(m))


def solve_right(m: FieldMatrix, y: FieldMatrix) -> FieldMatrix:
    """Solve m @ x = y for x; free variables (if any) are set to zero.

    The rows of [m | y] are reduced in order by :func:`reduce_row`; a row
    whose pivot lands in the y part has no solution and raises
    :class:`Inconsistent`.  Each pivot is then cleared from the rows above
    it, last pivot first, so that row r is 1 at its pivot c and 0 at every
    other pivot, and x[c] is the y part of row r.
    """
    m._check_same_field(y)
    if m.rows != y.rows:
        raise ValueError("row mismatch between system and right-hand side")
    q, n = m.q, m.cols
    basis = []
    for i in range(m.rows):
        reduced = reduce_row(basis, m.row(i) + y.row(i), q)
        if reduced is None:
            continue
        if reduced[0] >= n:
            raise Inconsistent("system has no solution")
        basis.append(reduced)
    for k in range(len(basis) - 1, 0, -1):
        c, b = basis[k]
        for i in range(k):
            p, row = basis[i]
            f = row[c]
            if f:
                basis[i] = p, [(x - f * z) % q for x, z in zip(row, b)]
    x = [[0] * y.cols for _ in range(n)]
    for c, row in basis:
        x[c] = row[n:]
    return FieldMatrix._of(n, y.cols, tuple([v for row in x for v in row]), q)


def inverse(m: FieldMatrix) -> FieldMatrix:
    """Inverse of a square matrix; raises Inconsistent when singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    return solve_right(m, FieldMatrix.identity(m.rows, m.q))
