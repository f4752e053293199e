import random
from fractions import Fraction
from math import lcm

import pytest

import mmcast.lp
from mmcast.lp import LinearProgram, LpSolution, SimplexSolver

F = Fraction


def test_lower_bound_only():
    lp = LinearProgram([1], [({0: 1}, ">=", 3), ({0: 1}, "<=", 10)], [None])
    s = SimplexSolver(lp).solve()
    assert (s.status, s.value, s.x) == ("optimal", 3, [3])


def test_equality_vertex_deterministic():
    # a duplicated and an implied copy of the equality change nothing: each
    # keeps its own slack pair instead of being dropped as redundant
    for extra in ([], [({0: 1, 1: 1}, "==", 1), ({0: 2, 1: 2}, "==", 2)]):
        lp = LinearProgram([1, 1], [({0: 1, 1: 1}, "==", 1)] + extra, [None, None])
        s = SimplexSolver(lp).solve()
        assert s.value == 1
        assert s.x == [1, 0]      # pinned: deterministic pivoting picks this vertex


def test_infeasible():
    lp = LinearProgram([0], [({0: 1}, ">=", 1), ({0: 1}, "<=", 0)], [None])
    assert SimplexSolver(lp).solve().status == "infeasible"
    # an empty box is a malformed program, not an infeasible one
    with pytest.raises(ValueError):
        LinearProgram([0], [], [-1])
    with pytest.raises(ValueError):
        LinearProgram([0, 0], [], [None])


def test_unbounded():
    lp = LinearProgram([-1], [], [None])
    assert SimplexSolver(lp).solve().status == "unbounded"


def test_negative_cost_needs_primal_pivots():
    # the first feasible basis is optimal only for max(c, 0), so under a
    # negative cost the primal pass after the dual one must pivot
    solver = SimplexSolver(LinearProgram([-1, 1], [({0: 1, 1: 1}, ">=", 2)], [5, None]))
    log = []
    solver._pivot = lambda *a: log.append("pivot") or SimplexSolver._pivot(solver, *a)
    solver._optimize = lambda obj: log.append("optimize") or SimplexSolver._optimize(solver, obj)
    s = solver.solve()
    assert (s.value, s.x) == (-5, [5, 0])
    assert log == ["pivot", "optimize", "pivot"]    # one dual, then one primal pivot


def test_cold_solve_builds_one_objective_row_per_phase_it_needs(monkeypatch):
    # at the slack basis the objective's row is dual feasible when no cost
    # is negative, so the dual phase and the finish share it; a negative
    # cost runs the dual phase on the row's positive part and needs the row
    # of c once more.  A cold solve never goes through resolve.
    rows = []
    build = SimplexSolver._objective_row

    def counted(self, objective):
        rows.append(list(objective))
        return build(self, objective)

    monkeypatch.setattr(SimplexSolver, "_objective_row", counted)
    monkeypatch.setattr(SimplexSolver, "resolve", lambda self, cost: pytest.fail("resolve"))
    for objective, built, expected in (([1, 2], 1, (2, [2, 0])),
                                       ([0, F(1, 3)], 1, (0, [2, 0])),
                                       ([-1, 1], 2, (-5, [5, 0]))):
        rows.clear()
        s = SimplexSolver(LinearProgram(objective, [({0: 1, 1: 1}, ">=", 2)], [5, None])).solve()
        assert (s.value, s.x, rows) == (*expected, [objective] * built)


def test_resolve_rejects_wrong_objective_length():
    # a short objective must not be padded with zeros, nor extra entries
    # land on the slack columns
    solver = SimplexSolver(LinearProgram([1, 1], [({0: 1, 1: 1}, ">=", 2)], [None, None]))
    assert solver.solve().value == 2
    for objective in ([1, 1, 5, 7], [1]):
        with pytest.raises(ValueError):
            solver.resolve(objective)
    assert solver.resolve([1, 1]).value == 2


def test_primal_ratio_test_is_exact():
    # the ratios 1/1 and (10**17 - 1)/10**17 are both 1.0 as floats, and the
    # tie-break would then pick the first row, whose bound x <= 1 overshoots
    big = 10 ** 17
    lp = LinearProgram([-1], [({0: 1}, "<=", 1), ({0: big}, "<=", big - 1)], [None])
    s = SimplexSolver(lp).solve()
    assert (s.value, s.x) == (-F(big - 1, big), [F(big - 1, big)])


def test_dual_ratio_test_is_exact():
    # the dual ratios obj/-a of the two columns, 1/1 and (10**17 - 1)/10**17,
    # differ by less than 2^-53; the exact test enters x1 at once, so the
    # basis stays dual feasible and the primal pass needs no pivot
    big = 10 ** 17
    solver = SimplexSolver(LinearProgram([1, big - 1], [({0: 1, 1: big}, ">=", 1)],
                                         [None, None]))
    log = []
    solver._pivot = lambda *a: log.append("pivot") or SimplexSolver._pivot(solver, *a)
    solver._optimize = lambda obj: log.append("optimize") or SimplexSolver._optimize(solver, obj)
    s = solver.solve()
    assert (s.value, s.x) == (F(big - 1, big), [0, F(1, big)])
    assert log == ["pivot", "optimize"]


def test_exact_rationals():
    # rational costs and right-hand side over integer coefficients
    lp = LinearProgram([F(1, 3), F(1, 7)],
                       [({0: 2, 1: 5}, ">=", F(9, 2))],
                       [None, None])
    s = SimplexSolver(lp).solve()
    assert s.status == "optimal"
    # cheapest unit of constraint satisfaction: compare the two column rates
    assert s.value == min(F(1, 3) / 2, F(1, 7) / 5) * F(9, 2)


def _int_row(rng, n, lo, hi) -> dict:
    """A random row over n columns: each coefficient an int in [lo, hi], zeros left out."""
    return {j: a for j in range(n) if (a := rng.randint(lo, hi))}


def _lhs(coeffs, x):
    return sum(a * x[j] for j, a in coeffs.items())


def _random_primal_dual(rng):
    n, m = rng.randint(1, 4), rng.randint(1, 4)
    a = [_int_row(rng, n, -3, 3) for _ in range(m)]
    c = [F(rng.randint(0, 5)) for _ in range(n)]
    x0 = [F(rng.randint(0, 3)) for _ in range(n)]
    b = [_lhs(row, x0) - F(rng.randint(0, 3)) for row in a]
    primal = LinearProgram(c, [(row, ">=", bi) for row, bi in zip(a, b)],
                           [None] * n)
    dual = LinearProgram(                   # column j of a is the dual's row j
        [-bi for bi in b],
        [({i: row[j] for i, row in enumerate(a) if j in row}, "<=", c[j]) for j in range(n)],
        [None] * m)
    return primal, dual


def test_strong_duality_random():
    rng = random.Random(67)
    checked = 0
    for _ in range(60):
        primal, dual = _random_primal_dual(rng)
        ps = SimplexSolver(primal).solve()
        ds = SimplexSolver(dual).solve()
        if ps.status != "optimal" or ds.status != "optimal":
            continue
        checked += 1
        assert ps.value == -ds.value
    assert checked >= 30


def _exact_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    used = [False] * len(rows)
    for c in range(cols):
        pivot = next((i for i in range(len(rows)) if not used[i] and rows[i][c] != 0), None)
        if pivot is None:
            continue
        used[pivot] = True
        rank += 1
        inv = rows[pivot][c]
        rows[pivot] = [v / inv for v in rows[pivot]]
        for i in range(len(rows)):
            if i != pivot and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [u - factor * v for u, v in zip(rows[i], rows[pivot])]
    return rank


def test_solution_is_a_vertex():
    # the active constraints (rows, x >= 0 and caps) at the optimum span all variables
    rng = random.Random(71)
    checked = 0
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        rows = []
        for _ in range(m):
            coeffs = _int_row(rng, n, -2, 3)
            rows.append((coeffs, rng.choice(["<=", ">="]), F(rng.randint(-4, 8))))
        lp = LinearProgram([F(rng.randint(-3, 3)) for _ in range(n)], rows,
                           [6] * n)
        s = SimplexSolver(lp).solve()
        if s.status != "optimal":
            continue
        checked += 1
        active = []
        for coeffs, rel, rhs in lp.rows:
            if _lhs(coeffs, s.x) == rhs:
                active.append([coeffs.get(j, 0) for j in range(n)])
        for j, xj in enumerate(s.x):
            if xj in (F(0), F(6)):
                active.append([F(1) if i == j else F(0) for i in range(n)])
        assert _exact_rank(active) == n
    assert checked >= 20


def test_resolve_reuses_constraints():
    lp = LinearProgram([1, 1], [({0: 1, 1: 1}, ">=", 2), ({0: 1, 1: -1}, "<=", 1)],
                       [5, 5])
    solver = SimplexSolver(lp)
    first = solver.solve()
    assert first.value == 2
    assert solver.resolve([F(3), F(1)]).value == 2
    assert solver.resolve([F(-1), F(-1)]).value == -10


def test_deterministic_repeat():
    rng = random.Random(73)
    for _ in range(10):
        primal, _ = _random_primal_dual(rng)
        a = SimplexSolver(primal).solve()
        b = SimplexSolver(primal).solve()
        assert (a.status, a.value, a.x) == (b.status, b.value, b.x)


def _stall_budgets(monkeypatch):
    """The default degenerate-stall budget, then 0: Bland's rule from the first pivot."""
    import mmcast.lp
    for stall in (mmcast.lp.DEGENERATE_STALL, 0):
        monkeypatch.setattr(mmcast.lp, "DEGENERATE_STALL", stall)
        yield stall


def test_against_independent_float_solver(monkeypatch):
    # scipy's HiGHS as an unrelated implementation; values agree to float accuracy
    from scipy.optimize import linprog
    for _ in _stall_budgets(monkeypatch):
        _compare_with_float_solver(linprog, random.Random(79))


def _compare_with_float_solver(linprog, rng):
    compared = 0
    for _ in range(80):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [(_int_row(rng, n, -3, 3), rng.choice(["<=", ">="]), F(rng.randint(-5, 8)))
                for _ in range(m)]
        c = [F(rng.randint(-4, 4)) for _ in range(n)]
        lp = LinearProgram(c, rows, [7] * n)
        mine = SimplexSolver(lp).solve()
        status, value = _highs(linprog, c, rows, [7] * n)
        if mine.status == "optimal":
            assert status == "optimal"
            assert abs(float(mine.value) - value) < 1e-7
            compared += 1
        elif mine.status == "infeasible":
            assert status == "infeasible"
    assert compared >= 20


def test_fuzz_mixed_relations_and_bounds(monkeypatch):
    # random LPs with equalities and optional caps: returned optima must
    # satisfy every row exactly, and statuses must match scipy or be proved;
    # then rational right-hand sides, caps and costs, also after appended cuts
    from scipy.optimize import linprog
    for _ in _stall_budgets(monkeypatch):
        _fuzz_against_float_solver(linprog, random.Random(83))
        _fuzz_rational_data(linprog, random.Random(103))


def _highs(linprog, c, rows, upper):
    """scipy's status name and value for the program, None for other statuses."""
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, rel, rhs in rows:
        if rel == "==":
            a_eq.append([float(coeffs.get(j, 0)) for j in range(len(c))])
            b_eq.append(float(rhs))
        else:
            sign = 1 if rel == "<=" else -1
            a_ub.append([sign * float(coeffs.get(j, 0)) for j in range(len(c))])
            b_ub.append(sign * float(rhs))
    ref = linprog([float(x) for x in c], A_ub=a_ub or None, b_ub=b_ub or None,
                  A_eq=a_eq or None, b_eq=b_eq or None,
                  bounds=[(0, None if u is None else float(u)) for u in upper],
                  method="highs")
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(ref.status), ref.fun


def _fuzz_against_float_solver(linprog, rng):
    agreements = proved = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(0, 4)
        upper = [rng.choice([None, F(rng.randint(1, 6))]) for _ in range(n)]
        rows = [(_int_row(rng, n, -3, 3), rng.choice(["<=", ">=", "=="]), F(rng.randint(-4, 6)))
                for _ in range(m)]
        equalities = [row for row in rows if row[1] == "=="]
        if equalities and rng.random() < 0.5:
            # a duplicated equality, or one implied by two others
            (a, _, b), (a2, _, b2) = rng.choice(equalities), rng.choice(equalities)
            k = rng.choice([1, -2, 3])
            rows.append(({j: k * a.get(j, 0) + a2.get(j, 0) for j in a.keys() | a2.keys()},
                         "==", k * b + b2))
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        lp = LinearProgram(c, rows, upper)
        solver = SimplexSolver(lp)
        solver._pivot = lambda *a: _checked_pivot(solver, *a)
        mine = solver.solve()
        if mine.status == "optimal":
            _assert_feasible(lp, mine.x)
            assert type(mine.value) is Fraction
            assert sum(a * x for a, x in zip(c, mine.x)) == mine.value
        expected, fun = _highs(linprog, c, rows, upper)
        if expected == mine.status:
            if expected == "optimal":
                assert abs(float(mine.value) - fun) < 1e-7
            agreements += 1
        elif expected is not None:
            # the float solver disagrees: prove our status exactly
            assert mine.status != "infeasible"
            _assert_has_feasible_point(lp)
            if mine.status == "unbounded":
                _assert_has_feasible_point(
                    LinearProgram(c, rows + [(dict(enumerate(c)), "<=", -10 ** 6)], upper))
            proved += 1
    assert agreements >= 100 and proved <= 2


def _checked_pivot(solver, r, e, obj):
    """Pivot, then check that every entry is an int, or a Fraction that is not integral."""
    SimplexSolver._pivot(solver, r, e, obj)
    for v in [v for row in _dense_rows(solver) for v in row] + obj:
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1)


def _random_row(rng, n, relations):
    return _int_row(rng, n, -3, 3), rng.choice(relations), F(rng.randint(-4, 8))


def _holds(row, x):
    coeffs, rel, rhs = row
    lhs = _lhs(coeffs, x)
    return lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs


def _assert_feasible(lp, x):
    assert all(isinstance(xj, Fraction) for xj in x)
    assert all(_holds(row, x) for row in lp.rows)
    assert all(0 <= xj and (u is None or xj <= u) for u, xj in zip(lp.upper, x))


def _assert_has_feasible_point(lp):
    """A zero-objective solve of ``lp`` returns a point that satisfies it exactly."""
    s = SimplexSolver(LinearProgram([0] * len(lp.objective), lp.rows, lp.upper)).solve()
    assert s.status == "optimal"
    _assert_feasible(lp, s.x)


def _appended_rows_match_cold_solves(seed):
    # append 1-3 rows to a solved bounded LP, re-optimize warm, and compare
    # with a cold solve of the enlarged program, also under a new objective
    rng = random.Random(seed)
    outcomes = {"optimal": 0, "infeasible": 0}
    cut_off = 0                 # appends that the previous optimum violated
    for _ in range(150):
        n = rng.randint(1, 4)
        upper = [F(rng.randint(1, 6)) for _ in range(n)]
        rows = [_random_row(rng, n, ["<=", ">=", "=="]) for _ in range(rng.randint(0, 3))]
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        solver = SimplexSolver(LinearProgram(c, rows, upper))
        first = solver.solve()
        if first.status != "optimal":
            continue
        extra = [_random_row(rng, n, ["<=", ">="]) for _ in range(rng.randint(1, 3))]
        cut_off += not all(_holds(row, first.x) for row in extra)
        enlarged = LinearProgram(c, rows + extra, upper)
        cold = SimplexSolver(enlarged).solve()
        solver.add_rows(extra)
        log = []
        solver._pivot = lambda *args: log.append("pivot") or SimplexSolver._pivot(solver, *args)
        solver._optimize = lambda obj: log.append("optimize") or SimplexSolver._optimize(solver, obj)
        warm = solver.resolve(c)
        del solver._pivot, solver._optimize
        if warm.status == "infeasible":
            assert cold.status == "infeasible" and "optimize" not in log
            outcomes["infeasible"] += 1
            continue
        assert log[log.index("optimize"):] == ["optimize"]  # the dual phase left it optimal for c
        assert warm.status == cold.status == "optimal" and warm.value == cold.value
        _assert_feasible(enlarged, warm.x)
        assert sum(a * xj for a, xj in zip(c, warm.x)) == warm.value
        c2 = [F(rng.randint(-3, 3)) for _ in range(n)]
        again = solver.resolve(c2)
        assert again.value == SimplexSolver(LinearProgram(c2, rows + extra, upper)).solve().value
        _assert_feasible(enlarged, again.x)
        outcomes["optimal"] += 1
    assert outcomes["optimal"] >= 40 and outcomes["infeasible"] >= 5
    assert cut_off >= 40


def test_add_rows_matches_cold_solve():
    _appended_rows_match_cold_solves(89)


def test_add_rows_under_blands_rule(monkeypatch):
    # a zero stall budget runs both the primal and the dual simplex on
    # Bland's rule from the first pivot
    import mmcast.lp
    monkeypatch.setattr(mmcast.lp, "DEGENERATE_STALL", 0)
    _appended_rows_match_cold_solves(97)


def _warm_sequences(seed):
    """Random mixes of solve, resolve and add_rows, one solver per LP.

    Objectives repeat or move a little, so many resolves keep the vertex,
    and many appended rows leave it where it is; some right-hand sides and
    costs are non-integral.  Returns the solutions, one list per LP, and
    the number of resolves that found a kept read-out.
    """
    rng = random.Random(seed)
    solutions, kept = [], 0
    for _ in range(80):
        n = rng.randint(1, 4)
        upper = [F(rng.randint(1, 6)) for _ in range(n)]
        rows = [_random_row(rng, n, ["<=", ">=", "=="]) for _ in range(rng.randint(0, 3))]
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        solver = SimplexSolver(LinearProgram(c, rows, upper))
        steps = [solver.solve()]
        while steps[-1].status == "optimal" and len(steps) < 12:
            s = steps[-1]
            _assert_feasible(solver.lp, s.x)        # every row appended so far
            assert sum(a * xj for a, xj in zip(c, s.x)) == s.value
            if rng.random() < 0.4:
                coeffs, rel, rhs = _random_row(rng, n, ["<=", ">="])
                solver.add_rows([(coeffs, rel, rhs + _rational(rng, 0, 1))])
            elif rng.random() < 0.4:
                c = [a + _rational(rng, -1, 1) * rng.randint(0, 1) for a in c]
            elif rng.random() < 0.5:
                c = [F(rng.randint(-3, 3)) for _ in range(n)]
            kept += solver._x is not None
            steps.append(solver.resolve(c))
        solutions.append(steps)
    return solutions, kept


def test_kept_read_out_is_the_fresh_read_out(monkeypatch):
    # every solution equals the one read out afresh at each resolve, and
    # every tableau change drops the kept read-out: an appended row leaves
    # the vertex where it is, so only the second check sees a read-out kept
    # past _append_rows
    for name in ("_pivot", "_append_rows"):
        def dropped(self, *args, method=getattr(SimplexSolver, name)):
            method(self, *args)
            assert self._x is None
        monkeypatch.setattr(SimplexSolver, name, dropped)
    resolve = SimplexSolver.resolve

    def fresh(self, objective):
        self._x = None
        return resolve(self, objective)

    for seed in (211, 212):
        shipped, kept = _warm_sequences(seed)
        with monkeypatch.context() as m:
            m.setattr(SimplexSolver, "resolve", fresh)
            assert _warm_sequences(seed)[0] == shipped
        assert sum(len(steps) for steps in shipped) >= 300 and kept >= 100


class _TwoPassRow(SimplexSolver):
    """The objective row as two passes built it: the gamma-scaled costs padded
    to every column, then ``det`` times them less each basic row with a cost."""

    def _objective_row(self, objective):
        if len(objective) != len(self.lp.objective):
            raise ValueError("objective length must match variable count")
        ratios = [c.as_integer_ratio() for c in objective]
        gamma = lcm(*(d for _, d in ratios))
        cost = [n * (gamma // d) for n, d in ratios] + [0] * (self.n_cols - len(objective))
        obj = [self.det * c for c in cost] + [0]
        for row, value, b in zip(self.tableau, self.rhs, self.basis):
            if cost[b]:
                for j, v in row.items():
                    obj[j] -= cost[b] * v
                obj[-1] -= cost[b] * value
        return obj, gamma


def _multiplier(rng):
    """A cost like a subgradient multiplier: an int over rho * 2^k, mostly above 50 bits."""
    k = rng.choice([0, 1, 3, 52, 54, 55, 56])
    return F(rng.randint(-(1 << k), 3 << k), rng.choice([1, 2, 3]) << k)


def _objective_row_runs(cls, seed):
    """Warm solve / resolve / add_rows runs on ``cls``, one solver per LP.

    Half the LPs have coefficients in {-1, 0, 1}, so ``det`` mostly stays 1;
    the others reach up to 3, so pivots move it.  Returns the log: each
    objective row built (a copy), each pivot's ``(row, entering, det)`` and
    each run's solutions.
    """
    rng = random.Random(seed)
    log = []

    def objective_row(solver, objective):
        obj, gamma = type(solver)._objective_row(solver, objective)
        log.append((list(obj), gamma))
        return obj, gamma

    def pivot(solver, r, e, obj):
        log.append((r, e, solver.det))
        SimplexSolver._pivot(solver, r, e, obj)

    for _ in range(80):
        n, top = rng.randint(2, 5), rng.choice([1, 3])
        x0 = [_rational(rng, 0, 2) for _ in range(n)]       # most programs are feasible
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = _int_row(rng, n, -top, top)
            rel = rng.choice(["<=", ">=", "=="])
            gap = {"<=": 1, ">=": -1, "==": 0}[rel] * _rational(rng, 0, 2)
            rows.append((coeffs, rel, _lhs(coeffs, x0) + gap))
        c = [_multiplier(rng) for _ in range(n)]
        solver = cls(LinearProgram(c, rows, [x + _rational(rng, 0, 3) for x in x0]))
        solver._objective_row = objective_row.__get__(solver)
        solver._pivot = pivot.__get__(solver)
        steps = [solver.solve()]
        while steps[-1].status == "optimal" and len(steps) < 10:
            if rng.random() < 0.3:
                cut = (_int_row(rng, n, -top, top), rng.choice(["<=", ">="]), _rational(rng, 0, 4))
                solver.add_rows([cut])
            else:
                c = [_multiplier(rng) for _ in range(n)]
            steps.append(solver.resolve(c))
        log.append(steps)
    return log


def test_objective_row_is_the_two_pass_row():
    # one pass over the scaled costs and the costed basic rows builds the
    # ints that two passes built, so warm runs give the same objective rows,
    # the same (row, entering, det) pivots and the same solutions
    for seed in (223, 227):
        mine = _objective_row_runs(SimplexSolver, seed)
        assert mine == _objective_row_runs(_TwoPassRow, seed)
        pivots = [e for e in mine if type(e) is tuple and len(e) == 3]
        gammas = [e[1] for e in mine if type(e) is tuple and len(e) == 2]
        solutions = [s for e in mine if type(e) is list for s in e]
        assert sum(det == 1 for _, _, det in pivots) >= 250
        assert sum(det > 1 for _, _, det in pivots) >= 250
        assert sum(gamma.bit_length() > 50 for gamma in gammas) >= 500
        assert sum(s.status == "optimal" for s in solutions) >= 350


def test_add_rows_reports_infeasibility():
    solver = SimplexSolver(LinearProgram([1, 1], [({0: 1, 1: 1}, "==", 4)], [5, 5]))
    assert solver.solve().x == [4, 0]
    assert solver.add_rows([({1: 1}, ">=", 1)]) is None     # cuts off [4, 0]
    assert solver.resolve([1, 1]).x == [3, 1]
    solver.add_rows([({0: 1}, ">=", 3), ({1: 1}, ">=", 2)])
    assert solver.resolve([1, 1]).status == "infeasible"
    assert solver.resolve([1, 1]).status == "infeasible"    # the LP stays empty


class _FractionReference:
    """The rational tableau simplex: a dense copy of the pivot rules over Fraction entries.

    Each tableau row is a dense list of the rational entries themselves,
    its right-hand side last, so ``det`` and ``rhs_scale`` stay 1 and
    :meth:`_cost` returns the objective as Fractions with scale 1.  It
    takes the same LinearProgram and has the solver's public methods, so
    it can stand in for :class:`SimplexSolver`; the integer solver must
    reproduce this tableau, divided by its scales, pivot for pivot.
    """

    det = rhs_scale = 1

    def __init__(self, lp):
        self.lp = lp
        self.tableau, self.basis = [], []
        self.n_cols = n = len(lp.objective)
        caps = [([1 if i == j else 0 for i in range(n)], u)
                for j, u in enumerate(lp.upper) if u is not None]
        self._append_rows([r for row in lp.rows for r in self._le_rows(*row)] + caps)

    def _le_rows(self, coeffs, rel, rhs):
        coeffs = [coeffs.get(j, 0) for j in range(len(self.lp.objective))]
        rows = [] if rel == ">=" else [(coeffs, rhs)]
        if rel != "<=":
            rows.append(([-a for a in coeffs], -rhs))
        return rows

    def _append_rows(self, rows):
        k = len(rows)
        for r in self.tableau:
            r[-1:-1] = [0] * k
        old = list(zip(self.tableau, self.basis))
        width = self.n_cols + k
        for row, rhs in rows:
            new = [F(a) for a in row] + [F(0)] * (width - len(row)) + [F(rhs)]
            new[self.n_cols] = F(1)
            for r, b in old:
                factor = new[b]
                if factor:
                    new = [a - factor * v for a, v in zip(new, r)]
            self.tableau.append(new)
            self.basis.append(self.n_cols)
            self.n_cols += 1

    def _pivot(self, r, e, obj):
        tab = self.tableau
        inv = 1 / tab[r][e]
        row = tab[r] = [v * inv for v in tab[r]]
        for other in tab[:r] + tab[r + 1:] + [obj]:
            factor = other[e]
            if factor:
                other[:] = [a - factor * v for a, v in zip(other, row)]
        self.basis[r] = e

    def _reduced_row(self, cost):
        obj = list(cost) + [F(0)]
        for row, b in zip(self.tableau, self.basis):
            if cost[b]:
                obj = [o - cost[b] * v for o, v in zip(obj, row)]
        return obj

    def _optimize(self, obj):
        tab, basis = self.tableau, self.basis
        stall = 0
        bland = False
        while True:
            bland = bland or stall >= mmcast.lp.DEGENERATE_STALL
            entering = -1
            if bland:
                for j in range(self.n_cols):
                    if obj[j] < 0:
                        entering = j
                        break
            else:
                best = 0
                for j in range(self.n_cols):
                    v = obj[j]
                    if v < best:
                        best = v
                        entering = j
            if entering < 0:
                return "optimal"
            leaving = -1
            for i, row in enumerate(tab):
                a = row[entering]
                if a > 0:
                    rhs = row[-1]
                    if leaving >= 0:
                        lhs, other = rhs * best_a, best_rhs * a
                        if not (lhs < other or (lhs == other and basis[i] < basis[leaving])):
                            continue
                    best_rhs, best_a, leaving = rhs, a, i
            if leaving < 0:
                return "unbounded"
            stall = stall + 1 if best_rhs == 0 else 0
            self._pivot(leaving, entering, obj)

    def _dual_optimize(self, obj):
        tab, basis = self.tableau, self.basis
        stall = 0
        bland = False
        while True:
            bland = bland or stall >= mmcast.lp.DEGENERATE_STALL
            leaving = -1
            worst = 0
            for i, row in enumerate(tab):
                rhs = row[-1]
                if rhs < 0 and (leaving < 0 or (basis[i] < basis[leaving] if bland
                                                else rhs < worst)):
                    worst = rhs
                    leaving = i
            if leaving < 0:
                return "optimal"
            row = tab[leaving]
            entering = -1
            for j in range(self.n_cols):
                a = row[j]
                if a < 0 and (entering < 0 or obj[j] * best_d < best_cost * -a):
                    best_cost, best_d, entering = obj[j], -a, j
            if entering < 0:
                return "infeasible"
            stall = stall + 1 if best_cost == 0 else 0
            self._pivot(leaving, entering, obj)

    def solve(self):
        return self.resolve(self.lp.objective)

    def resolve(self, objective):
        cost, _ = self._cost(objective)
        obj = self._reduced_row(cost)
        if any(row[-1] < 0 for row in self.tableau):
            dual = obj
            if min(obj[:-1], default=0) < 0:
                dual = [max(v, 0) for v in obj[:-1]] + [F(0)]
            if self._dual_optimize(dual) == "infeasible":
                return LpSolution("infeasible")
            if dual is not obj:
                obj = self._reduced_row(cost)
        if self._optimize(obj) == "unbounded":
            return LpSolution("unbounded")
        x = [F(0)] * self.n_cols
        for row, b in zip(self.tableau, self.basis):
            x[b] = row[-1]
        return LpSolution("optimal", -obj[-1], x[:len(self.lp.objective)])

    def add_rows(self, rows):
        rows = [self.lp.checked_row(row) for row in rows]
        self._append_rows([r for row in rows for r in self._le_rows(*row)])
        self.lp.rows += rows

    def _cost(self, objective):
        if len(objective) != len(self.lp.objective):
            raise ValueError("objective length must match variable count")
        return [F(c) for c in objective] + [F(0)] * (self.n_cols - len(objective)), 1


def _dense_rows(solver):
    """The tableau as dense lists, each row's right-hand side last."""
    if isinstance(solver, _FractionReference):
        return solver.tableau
    return [[row.get(j, 0) for j in range(solver.n_cols)] + [rhs]
            for row, rhs in zip(solver.tableau, solver.rhs)]


def _rational(rng, lo, hi):
    return F(rng.randint(lo * 4, hi * 4), rng.choice([1, 2, 3, 4]))


def _pivot_snapshots(solver, gamma):
    """Record ``(pivot, basis, tableau, objective row)`` as rationals after every pivot.

    The integer solver's entries are checked to be ints over a positive
    ``det`` and divided by their scales; ``gamma[0]`` is the scale of the
    objective in effect.  A dual phase on a row other than the last one
    :meth:`_objective_row` built runs on the positive part of the reduced
    costs, ``det`` times that row, over ``det * gamma[0]`` with ``det`` at
    its start.  Returns the snapshot list, the list of ``det`` after each
    pivot and a one-item list: the count of such clipped phases from a
    basis with ``det > 1``.
    """
    snapshots, dets, clipped = [], [], [0]
    built, factor = [None], [1]

    def pivot(r, e, obj):
        type(solver)._pivot(solver, r, e, obj)
        det, sigma, scale = solver.det, solver.rhs_scale, gamma[0] * factor[0]
        rows = _dense_rows(solver)
        if isinstance(solver, _FractionReference):
            scale = 1
        else:
            assert type(det) is int and det > 0
            assert all(type(v) is int for row in rows for v in row)
            assert all(type(v) is int for v in obj)
            assert all(row[b] == det for row, b in zip(rows, solver.basis))
        snapshots.append(((r, e), list(solver.basis),
                          [[F(v, det) for v in row[:-1]] + [F(row[-1], det * sigma)]
                           for row in rows],
                          [F(v, det * scale) for v in obj[:-1]] +
                          [F(obj[-1], det * sigma * scale)]))
        dets.append(det)

    def objective_row(objective):
        built[0], gamma = type(solver)._objective_row(solver, objective)
        return built[0], gamma

    def dual(obj):
        if obj is not built[0]:
            factor[0] = solver.det
            clipped[0] += solver.det > 1
        try:
            return type(solver)._dual_optimize(solver, obj)
        finally:
            factor[0] = 1

    solver._pivot = pivot
    if not isinstance(solver, _FractionReference):
        solver._objective_row, solver._dual_optimize = objective_row, dual
    return snapshots, dets, clipped


def _scale(objective):
    return lcm(*(F(c).denominator for c in objective))


def _lockstep_scenario(rng):
    """A solve, cuts with new rhs denominators and new objectives on both solvers.

    Returns ``(snapshots, solutions, pivots that changed det)`` of the
    integer solver, then of the reference.
    """
    n = rng.randint(2, 4)
    x0 = [_rational(rng, 0, 2) for _ in range(n)]      # most programs are feasible
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs, rel = _int_row(rng, n, -3, 3), rng.choice(["<=", ">=", "=="])
        gap = {"<=": 1, ">=": -1, "==": 0}[rel] * _rational(rng, 0, 2)
        rows.append((coeffs, rel, _lhs(coeffs, x0) + gap))
    upper = [rng.choice([None, x + _rational(rng, 0, 3)]) for x in x0]
    c = [_rational(rng, -2, 3) for _ in range(n)]
    cuts = [[(_int_row(rng, n, -3, 3), rng.choice(["<=", ">="]),
              F(rng.randint(-8, 24), rng.choice([5, 6, 7]))) for _ in range(rng.randint(1, 2))]
            for _ in range(2)]
    objectives = [[rng.choice([_rational(rng, -2, 3), rng.randint(-3, 3) / 8])
                   for _ in range(n)] for _ in range(2)]
    runs = []
    for cls in (SimplexSolver, _FractionReference):
        solver = cls(LinearProgram(c, rows, upper))
        gamma = [_scale(c)]
        snapshots, dets, clipped = _pivot_snapshots(solver, gamma)
        solutions = [solver.solve()]
        for cut, objective in zip(cuts, objectives):
            if solutions[-1].status != "optimal":
                break
            solver.add_rows(cut)
            gamma[0] = _scale(objective)
            solutions.append(solver.resolve(objective))
        runs.append((snapshots, solutions, sum(a != b for a, b in zip([1] + dets, dets)),
                     clipped[0]))
    return runs


def test_integer_tableau_is_the_rational_tableau_over_det(monkeypatch):
    # on integral coefficients the integer-preserving pivots must make the
    # rational simplex's pivots, and its tableau divided by det (the rhs
    # column also by rhs_scale, the objective row by the objective's scale)
    # must be the rational tableau after every one of them
    rescales = pivots = clipped = 0
    for _ in _stall_budgets(monkeypatch):
        rng = random.Random(101)
        for _ in range(120):
            (mine, mine_solutions, changed, clips), (ref, ref_solutions, _, _) = \
                _lockstep_scenario(rng)
            assert mine == ref
            assert len(mine_solutions) == len(ref_solutions)
            for a, b in zip(mine_solutions, ref_solutions):
                assert (a.status, a.value, a.x) == (b.status, b.value, b.x)
                assert a.x is None or all(type(v) is Fraction for v in a.x)
            rescales += changed
            pivots += len(mine)
            clipped += clips
    # a clipped dual phase at det > 1 runs on det times the positive part
    assert pivots >= 1000 and rescales >= 600 and clipped >= 100


def _rational_rhs_row(rng, n, relations):
    return _int_row(rng, n, -3, 3), rng.choice(relations), _rational(rng, -4, 6)


def _check_against(linprog, lp, mine):
    """``mine`` equals a cold solve of ``lp``; returns whether scipy agrees."""
    cold = SimplexSolver(LinearProgram(lp.objective, lp.rows, lp.upper)).solve()
    assert mine.status == cold.status and mine.value == cold.value
    if mine.status == "optimal":
        _assert_feasible(lp, mine.x)
        assert sum(a * x for a, x in zip(lp.objective, mine.x)) == mine.value
    status, value = _highs(linprog, lp.objective, lp.rows, lp.upper)
    return status == mine.status and (status != "optimal" or abs(float(mine.value) - value) < 1e-7)


def _fuzz_rational_data(linprog, rng):
    """Integer rows with rational right-hand sides, caps and costs, solved then cut.

    The statuses and values of the solve and of the resolves after appended
    cuts must match a cold solve and scipy, and every returned point must
    satisfy the program exactly.
    """
    agreements = checked = appended = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        upper = [rng.choice([None, _rational(rng, 1, 6)]) for _ in range(n)]
        rows = [_rational_rhs_row(rng, n, ["<=", ">=", "=="]) for _ in range(rng.randint(0, 4))]
        c = [_rational(rng, -3, 3) for _ in range(n)]
        lp = LinearProgram(c, rows, upper)
        solver = SimplexSolver(lp)
        mine = solver.solve()
        checked += 1
        agreements += _check_against(linprog, lp, mine)
        if mine.status != "optimal":
            continue
        extra = [_rational_rhs_row(rng, n, ["<=", ">="]) for _ in range(rng.randint(1, 2))]
        solver.add_rows(extra)
        if solver.resolve(c).status == "infeasible":
            assert SimplexSolver(LinearProgram(c, rows + extra, upper)).solve().status == \
                "infeasible"
            continue
        appended += 1
        for objective in (c, [_rational(rng, -3, 3) for _ in range(n)]):
            checked += 1
            agreements += _check_against(linprog, LinearProgram(objective, rows + extra, upper),
                                         solver.resolve(objective))
    assert checked >= 250 and appended >= 50 and agreements >= checked - 2


def _recorded(pivot, log):
    """``pivot`` that logs ``(row, entering)`` and checks that sparse rows hold no zero."""
    def recorded(self, r, e, obj):
        log.append((r, e))
        pivot(self, r, e, obj)
        assert isinstance(self, _FractionReference) or all(all(row.values())
                                                            for row in self.tableau)
    return recorded


def test_multi_client_lps_pivot_like_the_rational_reference(monkeypatch):
    # solve_multi_exact's own LPs (dict rows, caps, appended cuts) make the
    # same pivots on the sparse integer tableau as on the dense rational one
    # and reach the same optimum
    import mmcast.multi_client as multi_client
    from helpers import random_feasible_instance
    pivot = {cls: cls._pivot for cls in (SimplexSolver, _FractionReference)}
    rng = random.Random(107)
    pivots = 0
    for i in range(20):
        instance, oracle, _ = random_feasible_instance(rng, n_sources=6 + i % 2, n_clients=2,
                                                       max_capacity=8)
        runs = []
        for cls in (SimplexSolver, _FractionReference):
            log = []
            monkeypatch.setattr(cls, "_pivot", _recorded(pivot[cls], log))
            monkeypatch.setattr(multi_client, "SimplexSolver", cls)
            rates = multi_client.solve_multi_exact(instance, oracle)
            runs.append((log, rates.cost, rates.envelope, rates.per_client))
        assert runs[0] == runs[1]
        pivots += len(runs[0][0])
    assert pivots >= 200


def test_row_columns_are_validated():
    # a row's columns must be ints in [0, n); its explicit zeros are dropped,
    # and add_rows checks a row the same way
    for bad in ({2: 1}, {-1: 1}, {"0": 1}, {0.0: 1}, {True: 1}):
        with pytest.raises(ValueError):
            LinearProgram([1, 1], [(bad, ">=", 1)], [None, None])
    lp = LinearProgram([1, 1], [({0: 0, 1: 2}, ">=", 1)], [None, None])
    assert lp.rows == [({1: 2}, ">=", 1)]
    solver = SimplexSolver(lp)
    assert solver.solve().x == [0, F(1, 2)]
    for bad in ({2: 1}, {"1": 1}):
        with pytest.raises(ValueError):
            solver.add_rows([(bad, ">=", 1)])
    solver.add_rows([({0: 1, 1: 0}, ">=", F(1, 3))])
    assert solver.lp.rows[-1] == ({0: 1}, ">=", F(1, 3))
    cold = SimplexSolver(LinearProgram([1, 1], [({1: 2}, ">=", 1), ({0: 1}, ">=", F(1, 3))],
                                       [None, None])).solve()
    assert solver.resolve([1, 1]) == cold


def test_rows_are_integer_dicts():
    # every row is a {column: int} map, so the integer tableau's pivots are the
    # rational simplex's: a dense list or a non-integral coefficient is refused
    # by the LP and by add_rows alike, and an integral Fraction becomes an int
    solver = SimplexSolver(LinearProgram([1, 1], [({0: 1}, ">=", 1)], [None, None]))
    for bad in ([1, 0], {0: F(1, 2)}, {1: 0.5}):
        with pytest.raises(ValueError):
            LinearProgram([1, 1], [(bad, ">=", 1)], [None, None])
        with pytest.raises(ValueError):
            solver.add_rows([(bad, ">=", 1)])
    lp = LinearProgram([1, 1], [({0: F(4, 2)}, ">=", 1)], [None, None])
    assert lp.rows == [({0: 2}, ">=", 1)] and type(lp.rows[0][0][0]) is int
    solver.add_rows([({1: F(4, 2)}, "<=", 5)])
    assert solver.lp.rows[-1] == ({1: 2}, "<=", 5) and type(solver.lp.rows[-1][0][1]) is int


@pytest.mark.parametrize("call, message", [
    (lambda: LinearProgram([1], [({0: 1}, "<", 1)], [None]), "unknown relation '<'"),
    (lambda: SimplexSolver(LinearProgram([1], [({0: 1}, ">=", 1)], [None])).add_rows(
        [({0: 1}, "==", 2)]), "add_rows takes <= and >= rows only"),
])
def test_every_row_check_raises_value_error(call, message):
    # each case reaches one check, named by its message
    with pytest.raises(ValueError, match=message):
        call()
