import random
from fractions import Fraction

import pytest

from helpers import matmul, stack, transpose
from mmcast import gf
from mmcast.errors import Inconsistent, ModulusMismatch
from mmcast.gf import FieldMatrix


def test_division_by_zero():
    # the scalar 0 and a rank-deficient matrix have no inverse
    for rows in ([[0]], [[1, 2], [2, 4]]):
        with pytest.raises(Inconsistent):
            gf.inverse(FieldMatrix.from_rows(rows, 5))


def test_modulus_mismatch():
    a = FieldMatrix.identity(2, 5)
    b = FieldMatrix.identity(2, 7)
    with pytest.raises(ModulusMismatch):
        gf.solve_right(a, b)


def test_nonprime_modulus_rejected():
    with pytest.raises(ModulusMismatch):
        FieldMatrix.from_rows([[1]], 6)
    with pytest.raises(ModulusMismatch):
        FieldMatrix.from_rows([[1]], 2 ** 64 + 13)     # prime, but above the limit


def test_is_prime_matches_trial_division():
    def trial(q):
        return q >= 2 and all(q % d for d in range(2, int(q ** 0.5) + 1))
    assert [q for q in range(5000) if gf.is_prime(q)] == [q for q in range(5000) if trial(q)]
    # strong pseudoprimes to the bases 2..7 and 2..23
    assert not gf.is_prime(3215031751) and not gf.is_prime(3825123056546413051)
    assert gf.is_prime(2 ** 61 - 1) and not gf.is_prime(2 ** 61 + 1)


def test_rank_examples():
    m = FieldMatrix.from_rows([[1, 0], [0, 1], [1, 1]], 2)
    assert gf.rank(m) == 2
    assert gf.rank(FieldMatrix.zeros(3, 4, 5)) == 0
    assert gf.rank(FieldMatrix.identity(6, 7)) == 6


def test_rank_does_not_mutate():
    m = FieldMatrix.from_rows([[2, 4], [1, 2]], 5)
    before = m.to_lists()
    gf.rank(m)
    assert m.to_lists() == before


def test_solve_right_examples():
    y = FieldMatrix.from_rows([[1, 2], [3, 4]], 5)
    assert gf.solve_right(FieldMatrix.identity(2, 5), y) == y
    x = gf.solve_right(FieldMatrix.from_rows([[2]], 5), FieldMatrix.from_rows([[1]], 5))
    assert x.to_lists() == [[3]]


def test_solve_right_inconsistent():
    m = FieldMatrix.from_rows([[1, 1], [2, 2]], 5)
    y = FieldMatrix.from_rows([[1], [1]], 5)
    with pytest.raises(Inconsistent):
        gf.solve_right(m, y)


def test_inverse_multiply_back():
    rng = random.Random(7)
    for _ in range(20):
        q = rng.choice([2, 3, 5, 7, 11])
        while True:
            m = FieldMatrix(4, 4, [rng.randrange(q) for _ in range(16)], q)
            if gf.rank(m) == 4:
                break
        inv = gf.inverse(m)
        assert matmul(m, inv) == FieldMatrix.identity(4, q)
        assert matmul(inv, m) == FieldMatrix.identity(4, q)


def test_rank_transpose_and_invariances():
    rng = random.Random(11)
    for _ in range(40):
        q = rng.choice([2, 3, 5])
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = FieldMatrix(r, c, [rng.randrange(q) for _ in range(r * c)], q)
        assert gf.rank(m) == gf.rank(transpose(m))
        rows = m.to_lists()
        rng.shuffle(rows)
        scale = rng.randrange(1, q)
        rows[0] = [(scale * x) % q for x in rows[0]]
        assert gf.rank(FieldMatrix.from_rows(rows, q, cols=c)) == gf.rank(m)


def test_stack_rank_subadditive():
    rng = random.Random(13)
    for _ in range(40):
        q = 5
        c = rng.randint(1, 5)
        a_rows = rng.randint(1, 4)
        b_rows = rng.randint(1, 4)
        a = FieldMatrix(a_rows, c, [rng.randrange(q) for _ in range(a_rows * c)], q)
        b = FieldMatrix(b_rows, c, [rng.randrange(q) for _ in range(b_rows * c)], q)
        assert gf.rank(stack(a, b)) <= gf.rank(a) + gf.rank(b)


def test_solve_right_remultiplication():
    rng = random.Random(17)
    for _ in range(30):
        q = 5
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = FieldMatrix(r, c, [rng.randrange(q) for _ in range(r * c)], q)
        x_true = FieldMatrix(c, 2, [rng.randrange(q) for _ in range(c * 2)], q)
        y = matmul(m, x_true)    # consistent by construction
        x = gf.solve_right(m, y)
        assert matmul(m, x) == y


def test_independent_rows():
    m = FieldMatrix.from_rows([[1, 0], [2, 0], [0, 1]], 5)
    assert gf.independent_rows(m) == [0, 2]


def test_independent_rows_is_greedy_rank_increase():
    rng = random.Random(11)
    for _ in range(400):
        q = rng.choice((2, 3, 5, 7))
        r, c = rng.randint(0, 7), rng.randint(1, 5)
        rows = []
        for _ in range(r):
            if rows and rng.random() < 0.4:     # a combination of earlier rows
                a, b = rng.choice(rows), rng.choice(rows)
                k = rng.randrange(q)
                rows.append([(x + k * y) % q for x, y in zip(a, b)])
            else:
                rows.append([rng.randrange(q) for _ in range(c)])
        m = FieldMatrix(r, c, [x for row in rows for x in row], q)
        kept = []
        for i in range(r):
            trial = [rows[j] for j in kept] + [rows[i]]
            if gf.rank(FieldMatrix.from_rows(trial, q)) > len(kept):
                kept.append(i)
        assert gf.independent_rows(m) == kept


def test_from_rows_rejects_ragged_rows():
    # a row of the wrong length is an error, never reshaped into the next row
    with pytest.raises(ValueError, match="row 1 has 5 entries, expected 4"):
        FieldMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0, 3], [2, 0, 0]], 5, cols=4)
    with pytest.raises(ValueError, match="row 1 has 3 entries, expected 2"):
        FieldMatrix.from_rows([[1, 0], [0, 1, 0], [2]], 5)     # totals match, rows do not
    with pytest.raises(ValueError):
        FieldMatrix.from_rows([[1, 0, 0]], 5, cols=2)
    assert FieldMatrix.from_rows([], 5, cols=3).cols == 3
    assert FieldMatrix.from_rows([[1, 2]], 5).to_lists() == [[1, 2]]


def test_constructor_rejects_non_integer_entries():
    # an entry is never truncated; an integer outside [0, q) is reduced
    for entry in (1.5, Fraction(7, 2), "3"):
        with pytest.raises(ValueError, match="not an integer"):
            FieldMatrix(1, 2, [entry, 2], 5)
        with pytest.raises(ValueError, match="not an integer"):
            FieldMatrix.from_rows([[1, entry]], 5)
    assert FieldMatrix(1, 4, [-1, 7, 2.0, Fraction(10, 2)], 5).to_lists() == [[4, 2, 2, 0]]


def test_row_basis_keeps_rows_outside_the_span_of_earlier_rows():
    # the span of the rows before each one is enumerated outright, with no elimination
    rng = random.Random(19)
    for _ in range(300):
        q = rng.choice((2, 3, 5))
        c = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(0, 7)):
            if rows and rng.random() < 0.4:     # a combination of earlier rows
                a, b = rng.choice(rows), rng.choice(rows)
                k = rng.randrange(q)
                rows.append(tuple((x + k * y) % q for x, y in zip(a, b)))
            else:
                rows.append(tuple(rng.randrange(q) for _ in range(c)))
        span, kept = {(0,) * c}, []
        for i, row in enumerate(rows):
            if row not in span:
                kept.append(i)
                span = {tuple((x + k * y) % q for x, y in zip(s, row))
                        for s in span for k in range(q)}
        assert gf.row_basis(rows, q) == kept
        assert gf.rank(FieldMatrix.from_rows(rows, q, cols=c)) == len(kept)


def _reference_solve_right(m: FieldMatrix, y: FieldMatrix) -> FieldMatrix:
    """Gauss-Jordan on [m | y], column by column, the first nonzero row as pivot."""
    q, ncols = m.q, m.cols
    work = [list(m.row(i)) + list(y.row(i)) for i in range(m.rows)]
    pivots, r = [], 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] % q), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], q - 2, q)
        work[r] = [x * inv % q for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] % q:
                f = work[i][c]
                work[i] = [(a - f * b) % q for a, b in zip(work[i], work[r])]
        pivots.append((r, c))
        r += 1
        if r == len(work):
            break
    pivot_rows = {i for i, _ in pivots}
    if any(any(work[i][ncols:]) for i in range(len(work)) if i not in pivot_rows):
        raise Inconsistent("system has no solution")
    x = [[0] * y.cols for _ in range(ncols)]
    for i, c in pivots:
        x[c] = work[i][ncols:]
    return FieldMatrix(ncols, y.cols, [v for row in x for v in row], q)


def test_solve_right_matches_gauss_jordan():
    # semi-echelon reduction and back-clearing give Gauss-Jordan's x (free
    # variables zero), and fail on the same systems
    rng = random.Random(23)
    outcomes = {"solved": 0, "inconsistent": 0, "inverted": 0}
    for _ in range(1500):
        q = rng.choice((2, 3, 5, 7, 11))
        r, c, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 3)
        rows = []
        for _ in range(r):
            if rows and rng.random() < 0.3:     # a combination of earlier rows: rank deficient
                a, b = rng.choice(rows), rng.choice(rows)
                s = rng.randrange(q)
                rows.append([(x + s * z) % q for x, z in zip(a, b)])
            else:
                rows.append([rng.randrange(q) for _ in range(c)])
        m = FieldMatrix.from_rows(rows, q, cols=c)
        if rng.random() < 0.5:
            y = matmul(m, FieldMatrix(c, k, [rng.randrange(q) for _ in range(c * k)], q))
        else:
            y = FieldMatrix(r, k, [rng.randrange(q) for _ in range(r * k)], q)
        try:
            want = _reference_solve_right(m, y)
        except Inconsistent:
            with pytest.raises(Inconsistent):
                gf.solve_right(m, y)
            outcomes["inconsistent"] += 1
        else:
            assert gf.solve_right(m, y) == want
            outcomes["solved"] += 1
        if r == c and gf.rank(m) == r:
            assert gf.inverse(m) == _reference_solve_right(m, FieldMatrix.identity(r, q))
            outcomes["inverted"] += 1
    assert min(outcomes.values()) >= 50, outcomes


_I2 = FieldMatrix.identity(2, 5)
_I3 = FieldMatrix.identity(3, 5)
SHAPE_CHECKS = {
    "entry count": (lambda: FieldMatrix(2, 2, [1, 2, 3], 5), "expected 4 entries, got 3"),
    "mat_vec": (lambda: _I2.mat_vec([1, 2, 3]), "vector length mismatch"),
    "solve_right": (lambda: gf.solve_right(_I2, _I3),
                    "row mismatch between system and right-hand side"),
    "inverse": (lambda: gf.inverse(FieldMatrix.zeros(2, 3, 5)), "inverse of a non-square matrix"),
}


@pytest.mark.parametrize("name", SHAPE_CHECKS)
def test_every_shape_check_raises_value_error(name):
    # each case reaches one check, named by its message
    call, message = SHAPE_CHECKS[name]
    with pytest.raises(ValueError, match=message):
        call()
