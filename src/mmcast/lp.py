"""Exact rational linear programming via tableau simplex from the slack basis.

The tableau holds only ``int``s over one positive common denominator
(Edmonds' integer-preserving simplex; Bareiss 1968).  With B the basis
matrix, ``det`` is |det B| and each entry is ``det`` times the rational
entry, an integer by Cramer's rule, because every row's coefficients are
integers (:class:`LinearProgram` takes no others).  The right-hand sides
also carry sigma, the lcm of their denominators (grown when an appended
row brings a new one), and the objective row gamma, the lcm of the
objective's.  A pivot on an entry P (the pivot row negated first when
P < 0) turns every other entry a into ``(P*a - a_e*p_j) // det``, an
exact division, and P becomes the new ``det``.  No gcd is taken in the
loop and no float enters: ratio tests compare ``p/q < r/s`` as
``p*s < r*q`` over positive ``q`` and ``s``.  The solution is read out as
Fractions, ``x_b = rhs / (det*sigma)`` and ``value = -corner /
(det*sigma*gamma)``; the read-out of x is kept until the basis changes (a
pivot or an appended row), so a resolve that makes no pivot returns the
same Fractions.  The objective row is built in one pass: ``det*gamma``
times the costs, less the row of each basic column that has a cost.

Each tableau row is a ``{column: int}`` map of its nonzeros, its
right-hand side kept apart, and LP rows come in as such maps.  A pivot
touches only the rows with a nonzero in the entering column, over the
pivot row's nonzeros, and when P equals ``det`` leaves the others as they
are, like a pivot on 1 over the rationals.  The ratio tests and the dual
entering scan visit nonzeros only; the objective row alone is dense.

Every quantity a pivot rule compares is its rational value times a
positive factor that is the same across the comparison: the reduced costs
by ``det*gamma``, the right-hand sides by ``det*sigma``, the primal ratios
by sigma and the dual ratios by gamma.  So the choices, their ties and the
degenerate-stall count are those of the same simplex over the rationals,
and the pivot sequence is exactly the rational one.

The pivot rule is steepest-coefficient (Dantzig), switching for good to
Bland's rule after a run of degenerate pivots: it cannot cycle, yet rarely
pays Bland's price.  Every run is deterministic given the input order and
ends at an exact vertex.

A :class:`LinearProgram` minimizes c.x over x >= 0, each variable with an
optional cap x_j <= u_j.  Every row enters as a ``<=`` row with its own
basic slack (an ``==`` row as a ``<=``/``>=`` pair), whatever the sign of
its right-hand side, and each cap as a ``<=`` row after them.
:class:`SimplexSolver` keeps its tableau, and :meth:`~SimplexSolver.solve`
(under the LP's objective) and :meth:`~SimplexSolver.resolve` (under any
other, such as the Lagrangian inner problems) run one re-optimization from
whatever the basis is.  While some right-hand side is negative, dual simplex
(Lemke's method) finds a feasible basis or proves that there is none, with
no artificial variables.  It pivots on the objective's own row where no
reduced cost is negative: at the slack basis under nonnegative costs, and
at a basis that was optimal for the objective before
:meth:`~SimplexSolver.add_rows`, which only appends rows (the cutting
planes).  Elsewhere it pivots on the positive part of the reduced costs,
the row of another objective.  Primal simplex then finishes.
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

    A row's coefficients are a ``{column: int}`` dict over columns in [0, n)
    that keeps only its nonzeros; the right-hand sides, costs and caps may be
    any exact rationals.  Every number is stored exact on construction: an
    ``int`` where integral, a ``Fraction`` elsewhere.
    """

    objective: list            # c, exact values
    rows: list                 # ({column: int}, rel, rhs), rel in {"<=", ">=", "=="}
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
        if not isinstance(coeffs, dict):
            raise ValueError("row coefficients must be a {column: int} dict")
        if not all(type(j) is int and 0 <= j < n for j in coeffs):
            raise ValueError("row columns must be ints in [0, variable count)")
        coeffs = {j: a for j, c in coeffs.items() if (a := _exact(c))}
        if not all(type(a) is int for a in coeffs.values()):
            raise ValueError("row coefficients must be integers")
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

    # -- tableau -----------------------------------------------------------

    def _append_rows(self, rows):
        """Append checked LP rows as ``<=`` rows, each with a new basic slack.

        A ``>=`` row is negated and an ``==`` row gives both; a right-hand
        side may be negative, which dual simplex then repairs.  Each new row
        is rewritten in terms of the current basis, by subtracting the row of
        each basic column it touches, so every basic column stays ``det``
        times a unit column; the new slacks leave ``det`` unchanged.  LP rows
        touch structural columns only, so with none of them basic (a cold
        build) a new row is ``det`` times the LP row, its copy when ``det`` is 1.
        """
        le = []
        for coeffs, rel, rhs in rows:
            if rel != ">=":
                le.append((coeffs, 1, rhs))
            if rel != "<=":
                le.append((coeffs, -1, rhs))
        sigma = lcm(self.rhs_scale, *[rhs.denominator for _, _, rhs in le])
        if sigma != self.rhs_scale:
            self.rhs[:] = [v * (sigma // self.rhs_scale) for v in self.rhs]
            self.rhs_scale = sigma
        det, tab, rhs_col, basis = self.det, self.tableau, self.rhs, self.basis
        self._x = None
        n = len(self.lp.objective)
        row_of = {b: i for i, b in enumerate(basis) if b < n}
        for row, sign, rhs in le:
            scale = sign * det
            new = dict(row) if scale == 1 else {j: scale * a for j, a in row.items()}
            value = scale * rhs.numerator * (sigma // rhs.denominator)
            touched = row.keys() & row_of.keys() if row_of else ()
            for j in touched:       # new[j] is det * a: subtract a times row i
                a, i = sign * row[j], row_of[j]
                for c, v in tab[i].items():
                    new[c] = new.get(c, 0) - a * v
                value -= a * rhs_col[i]
            if touched:
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

    def _objective_row(self, objective) -> tuple:
        """``(obj, gamma)``: the row of ``objective`` at the current basis.

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
        obj = [num * (scale // d) for num, d in ratios]
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
        """Minimize the LP's own objective from the current basis, as :meth:`resolve` does."""
        return self._reoptimize(self.lp.objective)

    def resolve(self, objective) -> LpSolution:
        """Minimize ``objective`` from the current basis, repairing any appended rows first.

        The objective has one entry per LP variable, each an int, a
        Fraction or a float (read exactly); any other length raises
        ValueError.  Its row is built once (see :meth:`_objective_row`).
        While some right-hand side is negative (the slack basis of
        ``>=`` rows, or rows from :meth:`add_rows`), dual simplex runs
        first: on that row when no reduced cost is negative, else on
        ``det`` times the row's positive part, the row of another
        objective, after which the objective's row is built afresh.  An
        empty LP returns status "infeasible"; otherwise primal simplex and
        the read-out follow.  The x read-out is kept while the basis is
        unchanged and handed out as a new list.
        """
        return self._reoptimize(objective)

    def _reoptimize(self, objective) -> LpSolution:
        """The one body of :meth:`solve` and :meth:`resolve` (see :meth:`resolve`).

        :meth:`solve` calls it directly, so a solve is never also a resolve.
        """
        obj, gamma = self._objective_row(objective)
        if min(self.rhs, default=0) < 0:
            dual = obj
            if min(obj[:-1], default=0) < 0:    # its positive part, an objective over det * gamma
                dual = [self.det * max(v, 0) for v in obj[:-1]] + [0]
            if self._dual_optimize(dual) == "infeasible":
                return LpSolution("infeasible")
            if dual is not obj:
                obj, gamma = self._objective_row(objective)
        if self._optimize(obj) == "unbounded":
            return LpSolution("unbounded")
        scale = self.det * self.rhs_scale
        if self._x is None:
            basic, zero = dict(zip(self.basis, self.rhs)), Fraction(0)
            self._x = [Fraction(basic[j], scale) if j in basic else zero
                       for j in range(len(self.lp.objective))]
        # obj[-1] holds -(c_B B^-1 b) times scale * gamma
        return LpSolution("optimal", Fraction(-obj[-1], scale * gamma), list(self._x))

    def add_rows(self, rows) -> None:
        """Append ``<=``/``>=`` rows to the LP, each with a new basic slack.

        The rows are checked as the LP's own are, rewritten in the current
        basis and appended to ``self.lp`` as well; an ``==`` row raises
        ValueError.  No pivot is made: a row the basic solution violates
        has a negative right-hand side, which the next :meth:`solve` or
        :meth:`resolve` repairs by dual simplex.
        """
        rows = [self.lp.checked_row(row) for row in rows]
        if any(rel == "==" for _, rel, _ in rows):
            raise ValueError("add_rows takes <= and >= rows only")
        self._append_rows(rows)
        self.lp.rows += rows
