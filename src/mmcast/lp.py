"""Exact rational linear programming via tableau simplex from the slack basis.

The tableau holds only ``int``s, over one positive common denominator
(Edmonds' integer-preserving simplex; Bareiss 1968).  With B the basis
matrix, ``det`` is |det B| and each entry is ``det`` times the rational
tableau entry, an integer by Cramer's rule, because every row enters with
integral coefficients: a row with a non-integral coefficient is multiplied
by the lcm of its coefficient denominators on entry, which scales only its
own slack.  Two more integer scales make the rest integral: the
right-hand-side column carries sigma, the lcm of the right-hand sides'
denominators (it grows, multiplying that column, when an appended row
brings a new denominator), and the objective row carries gamma, the lcm of
the objective's denominators.  A pivot on an entry P (the pivot row is
negated first when P < 0) turns every other entry a into
``(P*a - a_e*p_j) // det``, an exact division, and P becomes the new
``det``.  When P equals ``det`` a row with a zero in the entering column
is unchanged, so such a pivot touches only the rows it eliminates, like a
pivot on 1 over the rationals.  No gcd is taken anywhere in the loop, and
no float ever enters: ratio tests compare ``p/q < r/s`` as ``p*s < r*q``
over positive ``q`` and ``s``.  The solution is read out with one division
per value, ``x_b = rhs / (det*sigma)`` and ``value = -corner /
(det*sigma*gamma)``, and returned as Fractions.

Every quantity a pivot rule compares is its rational value times a
positive factor that is the same across the comparison: the reduced costs
by ``det*gamma``, the right-hand sides by ``det*sigma``, the primal ratios
by sigma and the dual ratios by gamma.  So the choices, their ties and the
degenerate-stall count are those of the same simplex over the rationals,
and on rows with integral coefficients (every LP the multicast solvers
pose) the pivot sequence is exactly the rational one.

Optima are exact vertices and every run is deterministic given the input
ordering.  The pivot rule is steepest-coefficient (Dantzig) with an
automatic permanent switch to Bland's rule after a run of degenerate
pivots, which preserves the no-cycling guarantee without paying Bland's
price on every solve.

A :class:`LinearProgram` minimizes c.x over x >= 0, each variable with
an optional cap x_j <= u_j.  Every row enters the tableau as a ``<=`` row
with its own basic slack (an ``==`` row as a ``<=``/``>=`` pair), whatever
the sign of its right-hand side, and each cap as a ``<=`` row after them.
That slack basis is dual feasible for the nonnegative part of the costs,
so dual simplex (Lemke's method) finds a feasible basis or proves that
there is none; no artificial variables and no phase-1 objective are
needed.

:class:`SimplexSolver` keeps its final tableau, so a solved LP can be
changed and re-optimized from its previous basis instead of from scratch:

* :meth:`SimplexSolver.resolve` minimizes a new objective over the same
  constraints (the Lagrangian inner problems) with primal simplex;
* :meth:`SimplexSolver.add_rows` appends ``<=``/``>=`` rows (cutting
  planes) and restores primal feasibility with dual simplex, which keeps
  the basis optimal for the last objective.
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
    return x if type(x) is int else integral(Fraction(x))


@dataclass
class LinearProgram:
    """Minimize c.x over x >= 0 subject to the rows and the caps.

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
        coeffs = [_exact(a) for a in coeffs]
        if len(coeffs) != len(self.objective):
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

    ``tableau`` rows are ints over the common denominator ``det`` (> 0):
    entry j < ``n_cols`` of row i is ``det`` times the rational entry, and
    the last entry, the right-hand side, is ``det * rhs_scale`` times it;
    the basic column of each row holds ``det`` there and 0 in every other
    row.  An objective row is ``det * gamma`` times the reduced costs, gamma
    the scale :meth:`_cost` returns, followed by ``-det * rhs_scale *
    gamma`` times the value of the basic solution.  Every pivot choice
    compares these quantities against each other, so the positive factors
    cancel and the pivots are those of the rational tableau (see the module
    docstring); ``rhs_scale`` only grows and ``det`` changes only at a pivot
    on an entry other than ``det``.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = len(lp.objective)
        self.tableau = []          # each row: coefficients + [rhs], ints
        self.basis = []
        self.n_cols = n
        self.det = 1               # |det B|, the tableau's common denominator
        self.rhs_scale = 1         # lcm of the right-hand sides' denominators
        caps = [([1 if i == j else 0 for i in range(n)], u)
                for j, u in enumerate(lp.upper) if u is not None]
        self._append_rows([r for row in lp.rows for r in self._le_rows(*row)] + caps)
        self._solved = False
        self._objective = None     # objective the current basis is optimal for

    # -- tableau -----------------------------------------------------------

    @staticmethod
    def _le_rows(coeffs, rel, rhs) -> list:
        """The ``(row, rhs)`` ``<=`` rows of one checked LP row; an ``==`` row gives two."""
        rows = [] if rel == ">=" else [(coeffs, rhs)]
        if rel != "<=":
            rows.append(([-a for a in coeffs], -rhs))
        return rows

    def _append_rows(self, rows):
        """Append ``(row, rhs)`` rows over x, each with a new basic slack.

        Entries are exact ints or Fractions (see
        :meth:`LinearProgram.checked_row`).  A row with a non-integral
        coefficient is multiplied by the lcm of its coefficient
        denominators, and the right-hand-side column is rescaled when a new
        right-hand side brings a new denominator.  A right-hand side may be
        negative: the basis then is not primal feasible, and dual simplex
        restores it.  Each new row is rewritten in terms of the current
        basis, so every basic column stays ``det`` times a unit column; the
        new slacks leave ``det`` unchanged.
        """
        scaled = []
        for row, rhs in rows:
            k = lcm(*(a.denominator for a in row if type(a) is not int))
            scaled.append(([int(a * k) for a in row], rhs * k) if k > 1 else (row, rhs))
        sigma = lcm(self.rhs_scale, *(rhs.denominator for _, rhs in scaled))
        grow = sigma // self.rhs_scale
        self.rhs_scale = sigma
        k = len(rows)
        for r in self.tableau:
            r[-1:-1] = [0] * k
            r[-1] *= grow
        det = self.det
        old = list(zip(self.tableau, self.basis))
        width = self.n_cols + k
        for row, rhs in scaled:
            slack = self.n_cols
            new = [det * a for a in row] + [0] * (width - len(row)) + [det * int(rhs * sigma)]
            new[slack] = det
            for r, b in old:
                factor = new[b] // det
                if factor:
                    for j, v in enumerate(r):
                        if v:
                            new[j] -= factor * v
            self.tableau.append(new)
            self.basis.append(slack)
            self.n_cols += 1

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r: int, e: int, obj: list):
        """Integer-preserving pivot on ``tableau[r][e]``; ``obj`` is updated in place.

        With P = |tableau[r][e]| (row r is negated when the entry is
        negative), every other row becomes ``(P*a - a_e*p) // det`` and P
        is the new ``det``.  When P == ``det`` that leaves a row with a
        zero in column e as it is, and subtracts ``a_e*p // det`` over the
        pivot row's nonzeros from the others.
        """
        tab, det = self.tableau, self.det
        row = tab[r]
        piv = row[e]
        if piv < 0:
            piv = -piv
            row = tab[r] = [-v for v in row]
        others = tab[:r] + tab[r + 1:]
        others.append(obj)
        if piv == det:
            nonzero = [(j, v) for j, v in enumerate(row) if v]
            for other in others:
                factor = other[e]
                if factor:
                    for j, v in nonzero:
                        other[j] -= factor * v // det
        else:
            for other in others:
                factor = other[e]
                other[:] = ([(piv * a - factor * v) // det for a, v in zip(other, row)]
                            if factor else [piv * a // det if a else 0 for a in other])
            self.det = piv
        self.basis[r] = e

    def _reduced_row(self, cost: list) -> list:
        """Objective row (reduced costs + current value) for the basis.

        ``cost`` is a row of ints from :meth:`_cost`.  Starts from ``det``
        times it and subtracts each basic row times its basic cost, in
        place and over the row's nonzero entries only.
        """
        det = self.det
        obj = [det * c for c in cost] + [0]
        for row, b in zip(self.tableau, self.basis):
            cb = cost[b]
            if cb:
                for j, v in enumerate(row):
                    if v:
                        obj[j] -= cb * v
        return obj

    def _optimize(self, obj: list) -> str:
        """Primal simplex until optimal or unbounded.

        The leaving row minimizes rhs / a over the entering column's
        positive entries a, the smallest basic index winning ties; the
        ratios are compared by cross-multiplication.
        """
        tab, basis = self.tableau, self.basis
        stall = 0
        bland = False
        while True:
            bland = bland or stall >= DEGENERATE_STALL
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
        tab, basis = self.tableau, self.basis
        stall = 0
        bland = False
        while True:
            bland = bland or stall >= DEGENERATE_STALL
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
                return "infeasible"     # a negative sum of nonnegative terms
            stall = stall + 1 if best_cost == 0 else 0
            self._pivot(leaving, entering, obj)

    # -- public ------------------------------------------------------------

    def solve(self) -> LpSolution:
        """Find a feasible basis by dual simplex from the slack basis, then optimize.

        The slack basis has reduced costs ``c+ = max(c, 0)``, so it is dual
        feasible for ``c+``; dual simplex under ``c+`` reaches a primal
        feasible basis or proves that there is none.  :meth:`resolve` then
        optimizes the true objective, which needs no pivot when every cost
        is nonnegative.
        """
        cost, _ = self._cost(self.lp.objective)
        if self._dual_optimize(self._reduced_row([max(c, 0) for c in cost])) == "infeasible":
            self._solved = False
            return LpSolution("infeasible")
        self._solved = True
        return self.resolve(self.lp.objective)

    def resolve(self, objective) -> LpSolution:
        """Re-optimize with a new objective over the existing feasible basis.

        The objective has one entry per LP variable, each an int, a
        Fraction or a float (read exactly); any other length raises
        ValueError.
        """
        if not self._solved:
            raise RuntimeError("resolve requires a previous successful solve")
        cost, gamma = self._cost(objective)
        obj = self._reduced_row(cost)
        status = self._optimize(obj)
        if status == "unbounded":
            self._objective = None
            return LpSolution("unbounded")
        self._objective = list(objective)
        x = [0] * self.n_cols
        for r, b in enumerate(self.basis):
            x[b] = self.tableau[r][-1]
        scale = self.det * self.rhs_scale
        # obj[-1] holds -(c_B B^-1 b) times scale * gamma
        return LpSolution("optimal", Fraction(-obj[-1], scale * gamma),
                          [Fraction(v, scale) for v in x[:len(self.lp.objective)]])

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
        self._append_rows([r for row in rows for r in self._le_rows(*row)])
        self.lp.rows += rows
        cost, _ = self._cost(self._objective)
        if self._dual_optimize(self._reduced_row(cost)) == "infeasible":
            self._solved = False
            self._objective = None
            return False
        return True

    def _cost(self, objective) -> tuple:
        """``(cost row, gamma)``: the objective times gamma, the lcm of its denominators.

        The row covers all columns, as ints; the slacks cost nothing.
        """
        if len(objective) != len(self.lp.objective):
            raise ValueError("objective length must match variable count")
        ratios = [c.as_integer_ratio() for c in objective]
        gamma = lcm(*(d for _, d in ratios))
        return ([n * (gamma // d) for n, d in ratios] +
                [0] * (self.n_cols - len(objective))), gamma
