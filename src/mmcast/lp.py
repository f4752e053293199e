"""Exact rational linear programming via tableau simplex from the slack basis.

The tableau holds only ``int``s over one positive common denominator
(Edmonds' integer-preserving simplex; Bareiss 1968).  With B the basis
matrix, ``det`` is |det B| and each entry is ``det`` times the rational
entry, an integer by Cramer's rule, because every row enters with integral
coefficients: a row with a non-integral coefficient is multiplied by the
lcm of its coefficient denominators, which scales only its own slack.  The
right-hand sides also carry sigma, the lcm of their denominators (grown
when an appended row brings a new one), and the objective row gamma, the
lcm of the objective's.  A pivot on an entry P (the pivot row negated
first when P < 0) turns every other entry a into ``(P*a - a_e*p_j) //
det``, an exact division, and P becomes the new ``det``.  No gcd is taken
in the loop and no float enters: ratio tests compare ``p/q < r/s`` as
``p*s < r*q`` over positive ``q`` and ``s``.  The solution is read out as
Fractions, ``x_b = rhs / (det*sigma)`` and ``value = -corner /
(det*sigma*gamma)``; the read-out of x is kept until the basis changes (a
pivot or an appended row), so a resolve that makes no pivot returns the
same Fractions.  The objective row is built in one pass: ``det*gamma``
times the costs, less the row of each basic column that has a cost.

Each tableau row is a ``{column: int}`` map of its nonzeros, its
right-hand side kept apart; LP rows may come in as such maps too.  A pivot
touches only the rows with a nonzero in the entering column, over the
pivot row's nonzeros, and when P equals ``det`` leaves the others as they
are, like a pivot on 1 over the rationals.  The ratio tests and the dual
entering scan visit nonzeros only; the objective row alone is dense.

Every quantity a pivot rule compares is its rational value times a
positive factor that is the same across the comparison: the reduced costs
by ``det*gamma``, the right-hand sides by ``det*sigma``, the primal ratios
by sigma and the dual ratios by gamma.  So the choices, their ties and the
degenerate-stall count are those of the same simplex over the rationals,
and on rows with integral coefficients (every LP the multicast solvers
pose) the pivot sequence is exactly the rational one.

The pivot rule is steepest-coefficient (Dantzig), switching for good to
Bland's rule after a run of degenerate pivots: it cannot cycle, yet rarely
pays Bland's price.  Every run is deterministic given the input order and
ends at an exact vertex.

A :class:`LinearProgram` minimizes c.x over x >= 0, each variable with an
optional cap x_j <= u_j.  Every row enters as a ``<=`` row with its own
basic slack (an ``==`` row as a ``<=``/``>=`` pair), whatever the sign of
its right-hand side, and each cap as a ``<=`` row after them.  That slack
basis is dual feasible for the nonnegative part of the costs, so dual
simplex (Lemke's method) finds a feasible basis or proves that there is
none, with no artificial variables; with no negative cost, the row its
pivots keep is the objective's own.  :class:`SimplexSolver` keeps its
final tableau: :meth:`~SimplexSolver.resolve` minimizes a new objective
from the last basis by primal simplex (the Lagrangian inner problems), and
:meth:`~SimplexSolver.add_rows` appends cutting planes and restores primal
feasibility by dual simplex, which keeps the basis optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

DEGENERATE_STALL = 25          # consecutive zero-progress pivots before Bland


def integral(x):
    """An exact value as an int when it is integral, else unchanged.

    The int is exact like its Fraction and compares equal to it, and it is
    several times faster to add, multiply and compare, which is most of the
    cost of filling a table.
    """
    return x.numerator if x.denominator == 1 else x


def _exact(x):
    """A number as an exact value: an int where integral, a Fraction elsewhere."""
    return x if type(x) is int else integral(x if type(x) is Fraction else Fraction(x))


@dataclass
class LinearProgram:
    """Minimize c.x over x >= 0 subject to the rows and the caps.

    A row's coefficients are a dense list, one per variable, or a ``{column:
    coefficient}`` dict over columns in [0, n) that keeps only its nonzeros.
    Every number is stored exact on construction: an ``int`` where integral,
    a ``Fraction`` elsewhere.
    """

    objective: list            # c, exact values
    rows: list                 # (coeffs, rel, rhs), rel in {"<=", ">=", "=="}, exact values
    upper: list                # cap x_j <= upper[j] >= 0 (exact), None for no cap

    def __post_init__(self):
        self.objective = [_exact(c) for c in self.objective]
        self.rows = [self.checked_row(row) for row in self.rows]
        self.upper = [None if u is None else _exact(u) for u in self.upper]
        if len(self.upper) != len(self.objective):
            raise ValueError("upper length must match variable count")
        if any(u is not None and u < 0 for u in self.upper):
            raise ValueError("negative upper bound")

    def checked_row(self, row) -> tuple:
        """``(coeffs, rel, rhs)`` over exact values; raises ValueError on a malformed row."""
        coeffs, rel, rhs = row
        n = len(self.objective)
        if isinstance(coeffs, dict):
            if not all(type(j) is int and 0 <= j < n for j in coeffs):
                raise ValueError("row columns must be ints in [0, variable count)")
            coeffs = {j: a for j, c in coeffs.items() if (a := _exact(c))}
        else:
            coeffs = [_exact(a) for a in coeffs]
            if len(coeffs) != n:
                raise ValueError("row length must match variable count")
        if rel not in ("<=", ">=", "=="):
            raise ValueError(f"unknown relation {rel!r}")
        return coeffs, rel, _exact(rhs)


@dataclass
class LpSolution:
    status: str                # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    x: list | None = None


class SimplexSolver:
    """Dual-then-primal simplex on the slack-basis tableau of a LinearProgram.

    ``tableau[i]`` maps the columns of row i to its nonzero entries, ints
    over ``det`` (> 0), and ``rhs[i]`` is its right-hand side over ``det *
    rhs_scale``; a basic column holds ``det`` in its row, 0 elsewhere.  An
    objective row is a dense list: ``det * gamma`` times the reduced costs
    (gamma from :meth:`_objective_row`), then ``-det * rhs_scale * gamma`` times the
    value of the basic solution.  See the module docstring.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.tableau = []          # each row: {column: nonzero int}
        self.rhs = []              # each row's right-hand side, an int
        self.basis = []
        self.n_cols = len(lp.objective)
        self.det = 1               # |det B|, the tableau's common denominator
        self.rhs_scale = 1         # lcm of the right-hand sides' denominators
        self._x = None             # read-out of the basic solution, None once the basis changes
        self._append_rows(lp.rows + [({j: 1}, "<=", u) for j, u in enumerate(lp.upper)
                                     if u is not None])
        self._solved = False
        self._objective = None     # objective the current basis is optimal for

    # -- tableau -----------------------------------------------------------

    def _append_rows(self, rows):
        """Append checked LP rows as ``<=`` rows, each with a new basic slack.

        A ``>=`` row is negated and an ``==`` row gives both; a right-hand
        side may be negative, which dual simplex then repairs.  Each new row
        is rewritten in terms of the current basis, by subtracting the row of
        each basic column it touches, so every basic column stays ``det``
        times a unit column; the new slacks leave ``det`` unchanged.
        """
        le = []
        for coeffs, rel, rhs in rows:
            if not isinstance(coeffs, dict):
                coeffs = {j: a for j, a in enumerate(coeffs) if a}
            k = lcm(*[a.denominator for a in coeffs.values() if type(a) is not int])
            if k > 1:
                coeffs, rhs = {j: int(a * k) for j, a in coeffs.items()}, rhs * k
            if rel != ">=":
                le.append((coeffs, rhs))
            if rel != "<=":
                le.append(({j: -a for j, a in coeffs.items()}, -rhs))
        sigma = lcm(self.rhs_scale, *[rhs.denominator for _, rhs in le])
        if sigma != self.rhs_scale:
            self.rhs[:] = [v * (sigma // self.rhs_scale) for v in self.rhs]
            self.rhs_scale = sigma
        det, tab, rhs_col, basis = self.det, self.tableau, self.rhs, self.basis
        self._x = None
        row_of = dict(zip(basis, range(len(basis))))
        for row, rhs in le:
            new = {j: det * a for j, a in row.items()}
            value = det * rhs.numerator * (sigma // rhs.denominator)
            for j in row.keys() & row_of.keys():    # new[j] is det * a: subtract a times row i
                a, i = row[j], row_of[j]
                for c, v in tab[i].items():
                    new[c] = new.get(c, 0) - a * v
                value -= a * rhs_col[i]
                new = {c: v for c, v in new.items() if v}
            new[self.n_cols] = det
            tab.append(new)
            rhs_col.append(value)
            basis.append(self.n_cols)
            self.n_cols += 1

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r: int, e: int, obj: list):
        """Integer-preserving pivot on ``tableau[r][e]``; ``obj`` is updated in place.

        With P = |tableau[r][e]| (row r is negated when the entry is
        negative), every other row becomes ``(P*a - a_e*p) // det`` and P
        is the new ``det``.  A row with a_e = 0 is left as it is when P ==
        ``det`` and has its nonzeros rescaled otherwise; when P == ``det``
        the others subtract ``a_e*p // det`` over the pivot row's nonzeros.
        """
        tab, rhs, det = self.tableau, self.rhs, self.det
        row, p_rhs, piv = tab[r], rhs[r], tab[r][e]
        if piv < 0:
            piv, p_rhs = -piv, -p_rhs
            row = tab[r] = {j: -v for j, v in row.items()}
            rhs[r] = p_rhs
        for i, other in enumerate(tab):
            if i == r:
                continue
            f = other.get(e)
            if not f:
                if piv != det:
                    tab[i] = {j: piv * a // det for j, a in other.items()}
                    rhs[i] = piv * rhs[i] // det
            elif piv == det:
                for j, v in row.items():
                    w = other.get(j, 0) - f * v // det
                    if w:
                        other[j] = w
                    else:
                        del other[j]
                rhs[i] -= f * p_rhs // det
            else:
                new = {j: piv * a for j, a in other.items()}
                for j, v in row.items():
                    new[j] = new.get(j, 0) - f * v
                tab[i] = {j: a // det for j, a in new.items() if a}
                rhs[i] = (piv * rhs[i] - f * p_rhs) // det
        f = obj[e]
        if piv == det:
            if f:
                for j, v in row.items():
                    obj[j] -= f * v // det
                obj[-1] -= f * p_rhs // det
        else:
            obj[:] = [piv * a for a in obj]
            for j, v in row.items():
                obj[j] -= f * v
            obj[-1] -= f * p_rhs
            obj[:] = [a // det for a in obj]
            self.det = piv
        self.basis[r] = e
        self._x = None

    def _objective_row(self, objective, clip: bool = False) -> tuple:
        """``(obj, gamma)``: the row of ``objective`` (with ``clip``, of its positive part).

        gamma is the lcm of the objective's denominators; the row is ``det*gamma``
        times the costs less, for each basic column with a cost, its row times that cost.
        """
        n = len(self.lp.objective)
        if len(objective) != n:
            raise ValueError("objective length must match variable count")
        ratios = [c.as_integer_ratio() for c in objective]
        gamma = lcm(*{d for _, d in ratios})
        det = self.det
        scale = det * gamma
        obj = [0 if clip and num < 0 else num * (scale // d) for num, d in ratios]
        obj += [0] * (self.n_cols + 1 - n)
        for row, value, b in zip(self.tableau, self.rhs, self.basis):
            if b < n and obj[b]:        # a basic column's entry is still det * its cost
                cb = obj[b] // det
                for j, v in row.items():
                    obj[j] -= cb * v
                obj[-1] -= cb * value
        return obj, gamma

    def _optimize(self, obj: list) -> str:
        """Primal simplex until optimal or unbounded.

        The leaving row minimizes rhs / a over the entering column's
        positive entries a, the smallest basic index winning ties; the
        ratios are compared by cross-multiplication.
        """
        tab, rhs_col, basis = self.tableau, self.rhs, self.basis
        stall = 0
        bland = False
        while True:
            bland = bland or stall >= DEGENERATE_STALL
            if bland:
                entering = next((j for j in range(self.n_cols) if obj[j] < 0), -1)
            else:                   # the most negative reduced cost, the first on ties
                best = min(obj[:self.n_cols], default=0)
                entering = obj.index(best) if best < 0 else -1
            if entering < 0:
                return "optimal"
            leaving = -1
            for i, row in enumerate(tab):
                a = row.get(entering, 0)
                if a > 0:
                    rhs = rhs_col[i]
                    if leaving >= 0:
                        lhs, other = rhs * best_a, best_rhs * a     # rhs/a vs best_rhs/best_a
                        if not (lhs < other or (lhs == other and basis[i] < basis[leaving])):
                            continue
                    best_rhs, best_a, leaving = rhs, a, i
            if leaving < 0:
                return "unbounded"
            stall = stall + 1 if best_rhs == 0 else 0
            self._pivot(leaving, entering, obj)

    def _dual_optimize(self, obj: list) -> str:
        """Dual simplex from a dual-feasible basis until primal feasible or infeasible.

        The leaving row has the most negative right-hand side (under Bland's
        rule, the smallest basic index among the negative ones); the entering
        column minimizes obj[j] / -a over the row's negative entries a, the
        smallest column winning ties, so the reduced costs stay nonnegative.
        The ratios are compared by cross-multiplication.
        """
        tab, rhs_col, basis = self.tableau, self.rhs, self.basis
        stall = 0
        bland = False
        while True:
            bland = bland or stall >= DEGENERATE_STALL
            if bland:
                leaving = min((i for i, rhs in enumerate(rhs_col) if rhs < 0),
                              key=basis.__getitem__, default=-1)
            else:                   # the most negative right-hand side, the first on ties
                worst = min(rhs_col, default=0)
                leaving = rhs_col.index(worst) if worst < 0 else -1
            if leaving < 0:
                return "optimal"
            entering = -1
            for j, a in tab[leaving].items():       # not in column order: ties explicit
                if a < 0:
                    if entering >= 0:
                        lhs, other = obj[j] * best_d, best_cost * -a
                        if not (lhs < other or (lhs == other and j < entering)):
                            continue
                    best_cost, best_d, entering = obj[j], -a, j
            if entering < 0:
                return "infeasible"     # a negative sum of nonnegative terms
            stall = stall + 1 if best_cost == 0 else 0
            self._pivot(leaving, entering, obj)

    # -- public ------------------------------------------------------------

    def solve(self) -> LpSolution:
        """Find a feasible basis by dual simplex from the slack basis, then optimize.

        The slack basis has reduced costs ``c+ = max(c, 0)``, so it is dual
        feasible for ``c+``; dual simplex under ``c+`` reaches a primal
        feasible basis or proves that there is none.  Its pivots keep the
        row of ``c+``, which is the objective's row unless some cost is
        negative, and only then is that row built afresh; primal simplex and
        the read-out follow, the finish that :meth:`resolve` ends in too.
        """
        objective = self.lp.objective
        obj, gamma = self._objective_row(objective, clip=True)
        if self._dual_optimize(obj) == "infeasible":
            self._solved = False
            return LpSolution("infeasible")
        self._solved = True
        if any(c < 0 for c in objective):
            obj, gamma = self._objective_row(objective)
        return self._finish(objective, obj, gamma)

    def resolve(self, objective) -> LpSolution:
        """Re-optimize with a new objective over the existing feasible basis.

        The objective has one entry per LP variable, each an int, a
        Fraction or a float (read exactly); any other length raises
        ValueError.  The objective row is built for it in one pass (see
        :meth:`_objective_row`), then primal simplex and the read-out run as
        at the end of :meth:`solve`.
        """
        if not self._solved:
            raise RuntimeError("resolve requires a previous successful solve")
        return self._finish(objective, *self._objective_row(objective))

    def _finish(self, objective, obj: list, gamma: int) -> LpSolution:
        """Primal simplex on ``obj``, the row of ``objective``, then the read-out.

        The x read-out is kept while the basis is unchanged and handed out as
        a new list; the value is read from ``obj``.
        """
        if self._optimize(obj) == "unbounded":
            self._objective = None
            return LpSolution("unbounded")
        self._objective = list(objective)
        scale = self.det * self.rhs_scale
        if self._x is None:
            basic, zero = dict(zip(self.basis, self.rhs)), Fraction(0)
            self._x = [Fraction(basic[j], scale) if j in basic else zero
                       for j in range(len(self.lp.objective))]
        # obj[-1] holds -(c_B B^-1 b) times scale * gamma
        return LpSolution("optimal", Fraction(-obj[-1], scale * gamma), list(self._x))

    def add_rows(self, rows) -> bool:
        """Append ``<=``/``>=`` rows to the solved LP and restore feasibility.

        Each row enters the current basis with a new basic slack.  Dual
        simplex under the objective of the last optimal solve or resolve then
        brings the basis back to primal feasibility, so a following
        :meth:`resolve` with that objective needs no pivot.  The rows are
        appended to ``self.lp`` as well.  Returns False when the enlarged LP
        is infeasible; the solver then needs a new :meth:`solve` before it
        can resolve again.
        """
        if self._objective is None:
            raise RuntimeError("add_rows requires a previous optimal solve or resolve")
        rows = [self.lp.checked_row(row) for row in rows]
        if any(rel == "==" for _, rel, _ in rows):
            raise ValueError("add_rows takes <= and >= rows only")
        self._append_rows(rows)
        self.lp.rows += rows
        obj, _ = self._objective_row(self._objective)
        if self._dual_optimize(obj) == "infeasible":
            self._solved = False
            self._objective = None
            return False
        return True
