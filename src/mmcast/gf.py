"""Dense linear algebra over prime fields F_q.

Elements are plain integers reduced mod q; :class:`FieldMatrix` stores a
row-major tuple of them together with the shared modulus.  Everything here
is exact; matrices are never mutated in place by the public operations.
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
    """Immutable r x c matrix over F_q with integer entries in [0, q)."""

    __slots__ = ("rows", "cols", "q", "_data")

    def __init__(self, rows: int, cols: int, entries, q: int):
        if not is_field_modulus(q):
            raise ModulusMismatch(f"modulus {q} is not a prime below 2^64")
        data = tuple(int(x) % q for x in entries)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self.q = q
        self._data = data

    @classmethod
    def from_rows(cls, row_lists, q: int, cols: int | None = None) -> "FieldMatrix":
        row_lists = [list(r) for r in row_lists]
        if row_lists:
            cols = len(row_lists[0])
        elif cols is None:
            cols = 0
        flat = [x for r in row_lists for x in r]
        return cls(len(row_lists), cols, flat, q)

    @classmethod
    def identity(cls, n: int, q: int) -> "FieldMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)], q)

    @classmethod
    def zeros(cls, rows: int, cols: int, q: int) -> "FieldMatrix":
        return cls(rows, cols, [0] * (rows * cols), q)

    def __getitem__(self, idx):
        i, j = idx
        return self._data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._data[i * self.cols:(i + 1) * self.cols]

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, FieldMatrix) and self.q == other.q
                and self.rows == other.rows and self.cols == other.cols
                and self._data == other._data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.q, self._data))

    def __repr__(self):
        return f"FieldMatrix({self.rows}x{self.cols} over F_{self.q})"

    def _check_same_field(self, other: "FieldMatrix"):
        if self.q != other.q:
            raise ModulusMismatch(f"mixed moduli {self.q} and {other.q}")

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(
            self.cols, self.rows,
            [self[i, j] for j in range(self.cols) for i in range(self.rows)],
            self.q)

    def stack(self, other: "FieldMatrix") -> "FieldMatrix":
        """Vertical concatenation [self; other]."""
        self._check_same_field(other)
        if self.cols != other.cols:
            raise ValueError("column mismatch in stack")
        return FieldMatrix(self.rows + other.rows, self.cols,
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
        return FieldMatrix(self.rows, other.cols, out, q)

    def __matmul__(self, other):
        return self.matmul(other)

    def select_columns(self, indices) -> "FieldMatrix":
        indices = list(indices)
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            out.extend(ri[j] for j in indices)
        return FieldMatrix(self.rows, len(indices), out, self.q)

    def mat_vec(self, vec) -> list:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        q = self.q
        return [sum(a * b for a, b in zip(self.row(i), vec)) % q
                for i in range(self.rows)]


def _forward_eliminate(work: list, q: int, cols: int):
    """Row-reduce ``work`` in place; returns list of (pivot_row, pivot_col).

    The pivot in each column is the first row (in order) with a nonzero
    entry, so reduced forms are reproducible.
    """
    pivots = []
    r = 0
    nrows = len(work)
    for c in range(cols):
        pivot = None
        for i in range(r, nrows):
            if work[i][c] % q != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], q - 2, q)
        work[r] = [(x * inv) % q for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] % q != 0:
                factor = work[i][c]
                work[i] = [(a - factor * b) % q for a, b in zip(work[i], work[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots


def rank(m: FieldMatrix) -> int:
    """Rank via Gaussian elimination; the input matrix is not mutated."""
    work = [list(m.row(i)) for i in range(m.rows)]
    return len(_forward_eliminate(work, m.q, m.cols))


def independent_rows(m: FieldMatrix) -> list:
    """Indices of the greedy row basis: each row not in the span of the rows before it.

    These are the pivot columns of one elimination of the transpose.
    """
    work = [[m[i, j] for i in range(m.rows)] for j in range(m.cols)]
    return [c for _, c in _forward_eliminate(work, m.q, m.rows)]


def solve_right(m: FieldMatrix, y: FieldMatrix) -> FieldMatrix:
    """Solve m @ x = y for x; free variables (if any) are set to zero.

    Raises :class:`Inconsistent` when no solution exists.
    """
    m._check_same_field(y)
    if m.rows != y.rows:
        raise ValueError("row mismatch between system and right-hand side")
    q = m.q
    ncols = m.cols + y.cols
    work = [list(m.row(i)) + list(y.row(i)) for i in range(m.rows)]
    pivots = _forward_eliminate(work, q, m.cols)
    pivot_rows = {r for r, _ in pivots}
    for i in range(m.rows):
        if i not in pivot_rows and any(work[i][m.cols:]):
            raise Inconsistent("system has no solution")
    x = [[0] * y.cols for _ in range(m.cols)]
    for r, c in pivots:
        x[c] = [work[r][m.cols + j] % q for j in range(y.cols)]
    return FieldMatrix(m.cols, y.cols, [v for row in x for v in row], q)


def inverse(m: FieldMatrix) -> FieldMatrix:
    """Inverse of a square matrix; raises Inconsistent when singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    return solve_right(m, FieldMatrix.identity(m.rows, m.q))
