"""Exact rational linear programming via two-phase tableau simplex.

All arithmetic is over :class:`fractions.Fraction`; optima are exact
vertices and every run is deterministic given the input ordering.  The
pivot rule is steepest-coefficient (Dantzig) with an automatic permanent
switch to Bland's rule after a run of degenerate pivots, which preserves
the no-cycling guarantee without paying Bland's price on every solve.

:class:`SimplexSolver` keeps its final tableau, so a solved LP can be
changed and re-optimized from its previous basis instead of from scratch:

* :meth:`SimplexSolver.resolve` minimizes a new objective over the same
  constraints (the Lagrangian inner problems) with primal simplex;
* :meth:`SimplexSolver.add_rows` appends ``<=``/``>=`` rows (cutting
  planes) and restores primal feasibility with dual simplex, which keeps
  the basis optimal for the last objective.

Artificial columns are dropped as soon as phase 1 has driven them out of
the basis, so no later pivot walks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

DEGENERATE_STALL = 25          # consecutive zero-progress pivots before Bland


@dataclass
class LinearProgram:
    objective: list            # minimize c . x
    rows: list                 # (coeffs, rel, rhs) with rel in {"<=", ">=", "=="}
    bounds: list               # (lo, hi) per variable, None for an open side

    def __post_init__(self):
        n = len(self.objective)
        self.objective = [Fraction(c) for c in self.objective]
        self.rows = [self.checked_row(row) for row in self.rows]
        self.bounds = [(None if lo is None else Fraction(lo),
                        None if hi is None else Fraction(hi))
                       for lo, hi in self.bounds]
        if len(self.bounds) != n:
            raise ValueError("bounds length must match variable count")
        for lo, hi in self.bounds:
            if lo is not None and hi is not None and lo > hi:
                raise ValueError("empty variable bound interval")

    def checked_row(self, row) -> tuple:
        """``(coeffs, rel, rhs)`` over Fractions; raises ValueError on a malformed row."""
        coeffs, rel, rhs = row
        coeffs = [Fraction(a) for a in coeffs]
        if len(coeffs) != len(self.objective):
            raise ValueError("row length must match variable count")
        if rel not in ("<=", ">=", "=="):
            raise ValueError(f"unknown relation {rel!r}")
        return coeffs, rel, Fraction(rhs)


@dataclass
class LpSolution:
    status: str                # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    x: list | None = None


class SimplexSolver:
    """Two-phase simplex on the standard-form image of a LinearProgram."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.n_vars = len(lp.objective)
        self._build_standard_form()
        self._solved = False
        self._objective = None     # objective the current basis is optimal for

    # -- standard form ----------------------------------------------------

    def _build_standard_form(self):
        lp = self.lp
        # map each original variable to nonnegative solver variables
        self.var_map = []          # ("shift", j, lo) | ("flip", j, hi) | ("split", j+, j-)
        extra_rows = []            # upper-bound rows produced by shifts
        n_y = 0
        for i, (lo, hi) in enumerate(lp.bounds):
            if lo is not None:
                self.var_map.append(("shift", n_y, lo))
                if hi is not None:
                    extra_rows.append((i, hi - lo))
                n_y += 1
            elif hi is not None:
                self.var_map.append(("flip", n_y, hi))
                n_y += 1
            else:
                self.var_map.append(("split", n_y, n_y + 1))
                n_y += 2
        self.n_y = n_y

        rows = [self._to_y(coeffs, rel, rhs) for coeffs, rel, rhs in lp.rows]
        for i, ub in extra_rows:
            row = [ZERO] * n_y
            row[self.var_map[i][1]] = ONE
            rows.append((row, "<=", ub))

        # normalize: slack rows where possible, artificials elsewhere
        self.tableau = []          # each row: coefficients + [rhs]
        self.basis = []
        slack_count = sum(1 for _, rel, _ in rows if rel != "==")
        total_slots = n_y + slack_count
        self.artificial_start = total_slots
        slack_at = n_y
        art_rows = []
        for row, rel, rhs in rows:
            if rel == "<=":
                if rhs >= 0:
                    full = row + [ZERO] * slack_count + [rhs]
                    full[slack_at] = ONE
                    self.tableau.append(full)
                    self.basis.append(slack_at)
                else:
                    # flip into >= with positive rhs: surplus + artificial
                    full = [-a for a in row] + [ZERO] * slack_count + [-rhs]
                    full[slack_at] = -ONE
                    self.tableau.append(full)
                    self.basis.append(None)
                    art_rows.append(len(self.tableau) - 1)
                slack_at += 1
            else:  # equality
                if rhs < 0:
                    row, rhs = [-a for a in row], -rhs
                self.tableau.append(row + [ZERO] * slack_count + [rhs])
                self.basis.append(None)
                art_rows.append(len(self.tableau) - 1)

        # append artificial columns for rows without a basic slack
        n_art = len(art_rows)
        self.n_cols = total_slots + n_art
        for r in self.tableau:
            rhs = r.pop()
            r.extend([ZERO] * n_art)
            r.append(rhs)
        for k, i in enumerate(art_rows):
            col = total_slots + k
            self.tableau[i][col] = ONE
            self.basis[i] = col

    def _to_y(self, coeffs, rel, rhs) -> tuple:
        """A row over the solver variables y; ``>=`` rows come back as ``<=``."""
        row = [ZERO] * self.n_y
        for i, c in enumerate(coeffs):
            if not c:
                continue
            kind = self.var_map[i]
            if kind[0] == "shift":
                row[kind[1]] += c
                rhs -= c * kind[2]
            elif kind[0] == "flip":
                row[kind[1]] -= c
                rhs -= c * kind[2]
            else:
                row[kind[1]] += c
                row[kind[2]] -= c
        if rel == ">=":
            return [-a for a in row], "<=", -rhs
        return row, rel, rhs

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r: int, e: int, obj: list):
        tab = self.tableau
        row = tab[r]
        piv = row[e]
        if piv != 1:
            inv = ONE / piv
            row = tab[r] = [v * inv if v else v for v in row]
        nonzero = [j for j, v in enumerate(row) if v]
        for i, other in enumerate(tab):
            if i == r:
                continue
            factor = other[e]
            if factor:
                for j in nonzero:
                    other[j] -= factor * row[j]
        factor = obj[e]
        if factor:
            for j in nonzero:
                obj[j] -= factor * row[j]
        self.basis[r] = e

    def _reduced_row(self, cost: list) -> list:
        """Objective row (reduced costs + current value) for the basis."""
        obj = list(cost) + [ZERO]
        for r, b in enumerate(self.basis):
            cb = obj[b]
            if cb:
                row = self.tableau[r]
                obj = [a - cb * v for a, v in zip(obj, row)]
        return obj

    def _optimize(self, obj: list) -> str:
        """Primal simplex until optimal or unbounded."""
        tab = self.tableau
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
                best = ZERO
                for j in range(self.n_cols):
                    v = obj[j]
                    if v < best:
                        best = v
                        entering = j
            if entering < 0:
                return "optimal"
            leaving = -1
            best_ratio = None
            for i, row in enumerate(tab):
                a = row[entering]
                if a > 0:
                    ratio = row[-1] / a
                    if (best_ratio is None or ratio < best_ratio or
                            (ratio == best_ratio and self.basis[i] < self.basis[leaving])):
                        best_ratio = ratio
                        leaving = i
            if leaving < 0:
                return "unbounded"
            stall = stall + 1 if best_ratio == 0 else 0
            self._pivot(leaving, entering, obj)

    def _dual_optimize(self, obj: list) -> str:
        """Dual simplex from a dual-feasible basis until primal feasible or infeasible.

        The leaving row has the most negative right-hand side (under Bland's
        rule, the smallest basic index among the negative ones); the entering
        column minimizes obj[j] / -a over the row's negative entries a, the
        smallest column winning ties, so the reduced costs stay nonnegative.
        """
        tab, basis = self.tableau, self.basis
        stall = 0
        bland = False
        while True:
            bland = bland or stall >= DEGENERATE_STALL
            leaving = -1
            worst = ZERO
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
            best_ratio = None
            for j in range(self.n_cols):
                a = row[j]
                if a < 0:
                    ratio = obj[j] / -a
                    if best_ratio is None or ratio < best_ratio:
                        best_ratio = ratio
                        entering = j
            if entering < 0:
                return "infeasible"     # a negative sum of nonnegative terms
            stall = stall + 1 if best_ratio == 0 else 0
            self._pivot(leaving, entering, obj)

    def _drive_out_artificials(self):
        """Pivot the artificials out of a phase-1 optimal basis, then drop their columns."""
        drop = []
        for r, b in enumerate(self.basis):
            if b >= self.artificial_start:
                row = self.tableau[r]
                col = next((j for j in range(self.artificial_start) if row[j] != 0), None)
                if col is None:
                    drop.append(r)      # redundant constraint
                else:
                    dummy = [ZERO] * (self.n_cols + 1)
                    self._pivot(r, col, dummy)
        for r in sorted(drop, reverse=True):
            del self.tableau[r]
            del self.basis[r]
        keep = self.artificial_start
        if self.n_cols > keep:
            self.tableau = [row[:keep] + row[-1:] for row in self.tableau]
            self.n_cols = keep

    # -- public ------------------------------------------------------------

    def solve(self) -> LpSolution:
        phase1 = [ZERO] * self.n_cols
        for j in range(self.artificial_start, self.n_cols):
            phase1[j] = ONE
        obj = self._reduced_row(phase1)
        status = self._optimize(obj)
        if status != "optimal" or obj[-1] != 0:
            # phase-1 objective row carries -(sum of artificials)
            self._solved = False
            return LpSolution("infeasible")
        self._drive_out_artificials()
        self._solved = True
        return self.resolve(self.lp.objective)

    def resolve(self, objective) -> LpSolution:
        """Re-optimize with a new objective over the existing feasible basis."""
        if not self._solved:
            raise RuntimeError("resolve requires a previous successful solve")
        cost_y, const = self._objective_in_y(objective)
        obj = self._reduced_row(cost_y)
        status = self._optimize(obj)
        if status == "unbounded":
            self._objective = None
            return LpSolution("unbounded")
        self._objective = list(objective)
        x = self._extract_x()
        value = const - obj[-1]   # obj[-1] holds -(c_B B^-1 b)
        return LpSolution("optimal", value, x)

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
        for coeffs, rel, rhs in rows:
            y_row, _, rhs = self._to_y(coeffs, rel, rhs)
            slack = self.n_cols
            new = y_row + [ZERO] * (slack - self.n_y) + [ONE, rhs]
            for r, b in zip(self.tableau, self.basis):
                r.insert(slack, ZERO)
                factor = new[b]
                if factor:              # keep every basic column a unit column
                    for j, v in enumerate(r):
                        if v:
                            new[j] -= factor * v
            self.tableau.append(new)
            self.basis.append(slack)
            self.n_cols += 1
        self.lp.rows += rows
        cost_y, _ = self._objective_in_y(self._objective)
        if self._dual_optimize(self._reduced_row(cost_y)) == "infeasible":
            self._solved = False
            self._objective = None
            return False
        return True

    def _objective_in_y(self, objective):
        """Cost row over all columns and the constant the shifts add to the value."""
        cost, _, minus_const = self._to_y([Fraction(c) for c in objective], "==", ZERO)
        return cost + [ZERO] * (self.n_cols - self.n_y), -minus_const

    def _extract_x(self) -> list:
        y = [ZERO] * self.n_cols
        for r, b in enumerate(self.basis):
            y[b] = self.tableau[r][-1]
        x = []
        for kind in self.var_map:
            if kind[0] == "shift":
                x.append(kind[2] + y[kind[1]])
            elif kind[0] == "flip":
                x.append(kind[2] - y[kind[1]])
            else:
                x.append(y[kind[1]] - y[kind[2]])
        return x


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a linear program exactly; see :class:`SimplexSolver`."""
    return SimplexSolver(lp).solve()
