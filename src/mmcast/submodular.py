"""Submodular minimization and base-polyhedron primitives.

Two minimization engines are provided: an exact brute-force enumeration
(the reference path, ground sets up to 20 elements) and the Fujishige-Wolfe
minimum-norm-point method (floating point, for larger grounds).  Set
functions evaluate to exact rationals; the ground set is an ordered tuple
and subsets are handled as bitmasks internally (bit i is ``ground[i]``).

A set function is either lazy (each mask evaluated on first use) or
tabulated: every mask's value given up front, typically filled by
:func:`mask_table`, which walks the masks in increasing order and derives
``t[S]`` from ``t[S - v]`` for the lowest set bit ``v`` of ``S``.

Tie-breaking for minimizers is fixed everywhere: smallest cardinality
first, then lexicographically earliest element-index tuple, so certificates
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GroundTooLarge, InvalidParameters, MaxIterationsExceeded

BRUTE_FORCE_LIMIT = 20


def members(ground, mask: int) -> tuple:
    """The elements of the ordered ground set selected by the bitmask."""
    return tuple(e for i, e in enumerate(ground) if mask >> i & 1)


def _check_enumerable(n: int) -> None:
    if n > BRUTE_FORCE_LIMIT:
        raise GroundTooLarge(f"{n} elements exceeds brute-force limit {BRUTE_FORCE_LIMIT}")


def mask_table(n: int, empty, step) -> list:
    """Table over all 2^n masks: ``t[0] = empty``, ``t[S] = step(t[S - v], v, S)``.

    ``v`` is the index of the lowest set bit of ``S``, so ``S - v`` is an
    earlier mask and one increment per mask fills the whole table.
    """
    _check_enumerable(n)
    table = [empty] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        table[mask] = step(table[mask ^ low], low.bit_length() - 1, mask)
    return table


def modular_table(weights) -> list:
    """x(S) = sum of weights[i] over the bits i of S, for every mask S."""
    weights = list(weights)
    return mask_table(len(weights), 0, lambda prev, v, _: prev + weights[v])


@dataclass
class SetFunction:
    """A rational-valued set function over an ordered ground set."""

    ground: tuple
    evaluate: object            # callable(tuple of elements) -> Fraction
    kind: str = "unknown"       # {"submodular", "supermodular", "unknown"}

    def __post_init__(self):
        self._memo: dict = {}
        self._index = {e: i for i, e in enumerate(self.ground)}

    @classmethod
    def tabulated(cls, ground, values: list, kind: str = "unknown") -> "SetFunction":
        """Set function whose value at every mask is given: values[mask].

        Entries may be ints where the value is integral (exact, and faster to
        compare); :func:`sfm_brute_force` still returns a Fraction.
        """
        f = cls(tuple(ground), lambda nodes: values[f.mask(nodes)], kind)
        f._memo = dict(enumerate(values))
        return f

    def mask(self, nodes) -> int:
        mask = 0
        for v in nodes:
            mask |= 1 << self._index[v]
        return mask

    def value(self, mask: int) -> Fraction:
        hit = self._memo.get(mask)
        if hit is None:
            hit = self._memo[mask] = Fraction(self.evaluate(members(self.ground, mask)))
        return hit

    def __call__(self, nodes) -> Fraction:
        return self.value(self.mask(nodes))


def conditional_entropy_function(oracle, ground) -> SetFunction:
    """g(S) = H(X_S | X_{G \\ S}) on the ground subset G; supermodular."""
    ground = tuple(ground)
    return SetFunction(ground, lambda s: oracle.conditional(s, ground), "supermodular")


def entropy_function(oracle, ground) -> SetFunction:
    """f(S) = H(X_S) restricted to G; submodular dual of the conditional form."""
    return SetFunction(tuple(ground), lambda s: oracle.entropy(s), "submodular")


def _tie_key(mask: int):
    indices = []
    i = 0
    m = mask
    while m:
        if m & 1:
            indices.append(i)
        m >>= 1
        i += 1
    return (len(indices), tuple(indices))


def sfm_brute_force(f: SetFunction, include_empty: bool = True):
    """Exact global minimum of f over all subsets.

    Returns ``(members, value)`` with the documented tie-break.  The empty
    set participates unless ``include_empty`` is false (used by callers for
    which f(empty) = 0 holds trivially).
    """
    n = len(f.ground)
    _check_enumerable(n)
    start = 0 if include_empty else 1
    values = [f.value(mask) for mask in range(start, 1 << n)]
    if not values:
        raise InvalidParameters("empty search space")
    best_val = min(values)
    best_mask = min((mask for mask, v in enumerate(values, start) if v == best_val),
                    key=_tie_key)
    return members(f.ground, best_mask), Fraction(best_val)


def greedy_base_vertex(f: SetFunction, ordering) -> dict:
    """Greedy vertex of the base polyhedron for the given element ordering.

    x[e_i] = f({e_1..e_i}) - f({e_1..e_{i-1}}); the components always sum
    to f(ground).  Valid for submodular f (vertices of B(f)) and, with the
    inequalities reversed, for supermodular f.
    """
    ordering = tuple(ordering)
    if sorted(ordering) != sorted(f.ground):
        raise InvalidParameters("ordering must be a permutation of the ground set")
    x = {}
    prefix: list = []
    prev = f(prefix)
    for e in ordering:
        prefix.append(e)
        cur = f(prefix)
        x[e] = cur - prev
        prev = cur
    return x


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    violating_set: tuple | None
    deficit: Fraction | None    # how far the worst constraint is violated

    def __bool__(self):
        return self.member


def in_base_polyhedron(x: dict, f: SetFunction) -> MembershipResult:
    """Decide membership of x in the base polyhedron of f.

    Submodular f: x(S) <= f(S) for all S and x(ground) = f(ground).
    Supermodular f: inequalities reversed.  On failure the minimizing
    violating set is returned with the (positive) violation amount.
    """
    if f.kind not in ("submodular", "supermodular"):
        raise InvalidParameters("membership requires a declared sub/supermodular kind")
    ground_total = sum((x[e] for e in f.ground), Fraction(0))
    f_total = f(f.ground)
    if ground_total != f_total:
        return MembershipResult(False, tuple(f.ground), abs(ground_total - f_total))
    xs = modular_table(x[e] for e in f.ground)
    if f.kind == "supermodular":
        slack = [xv - f.value(mask) for mask, xv in enumerate(xs)]
    else:
        slack = [f.value(mask) - xv for mask, xv in enumerate(xs)]
    witness, worst = sfm_brute_force(SetFunction.tabulated(f.ground, slack, "submodular"))
    if worst < 0:
        return MembershipResult(False, witness, -worst)
    return MembershipResult(True, None, None)


def _greedy_vertex_array(f: SetFunction, order: np.ndarray) -> np.ndarray:
    """Greedy vertex as floats for the ordering given by element indices."""
    n = len(f.ground)
    x = np.empty(n)
    mask = 0
    prev = f.value(0)
    for idx in order:
        mask |= 1 << int(idx)
        cur = f.value(mask)
        x[int(idx)] = float(cur - prev)
        prev = cur
    return x


def _affine_minimizer(points: list):
    """Min-norm point of the affine hull of the given points.

    Returns (coefficients, point).  Solves the bordered Gram system; falls
    back to least squares when nearly singular.
    """
    s = np.array(points)
    m = len(points)
    gram = s @ s.T
    a = np.zeros((m + 1, m + 1))
    a[0, 1:] = 1.0
    a[1:, 0] = 1.0
    a[1:, 1:] = gram
    rhs = np.zeros(m + 1)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    mu = sol[1:]
    return mu, mu @ s


def min_norm_point(f: SetFunction, eps: float = 1e-9, max_major: int = 10000):
    """Fujishige-Wolfe minimum-norm point in the base polyhedron of f.

    Returns ``(x, members, value)``: the (float) min-norm point keyed by
    ground element, a minimizer of f extracted from it, and the exact value
    f(members).  The extraction scans every threshold prefix of x and keeps
    the best exact evaluation, so the reported value is attained.

    Requires submodular f with f(empty) = 0.
    """
    if f.value(0) != 0:
        raise InvalidParameters("min_norm_point requires f(empty) = 0")
    n = len(f.ground)
    if n == 0:
        return {}, (), Fraction(0)

    x = _greedy_vertex_array(f, np.arange(n))
    points = [x.copy()]
    lam = np.array([1.0])
    scale = max(1.0, float(np.max(np.abs(x))))
    tol = 1e-12 * scale * scale

    def extract(xv: np.ndarray):
        order = sorted(range(n), key=lambda i: (xv[i], i))
        best_mask, best_val = 0, f.value(0)
        mask = 0
        for i in order:
            mask |= 1 << i
            v = f.value(mask)
            if v < best_val or (v == best_val and _tie_key(mask) < _tie_key(best_mask)):
                best_mask, best_val = mask, v
        return members(f.ground, best_mask), best_val

    best_members, best_value = extract(x)
    for _ in range(max_major):
        order = np.argsort(x, kind="stable")
        q = _greedy_vertex_array(f, order)
        found, value = extract(x)
        if value < best_value:
            best_members, best_value = found, value
        # optimality: x'x <= x'q (+ tolerance) against the minimizing vertex q
        if float(x @ x) <= float(x @ q) + max(tol, eps * eps):
            return {e: float(x[i]) for i, e in enumerate(f.ground)}, best_members, best_value
        points.append(q)
        lam = np.append(lam, 0.0)
        while True:
            mu, y = _affine_minimizer(points)
            if np.all(mu >= -1e-12):
                x = y
                lam = np.maximum(mu, 0.0)
                break
            # move toward y until the first convex coefficient hits zero, drop it
            shrink = lam - mu
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(shrink > 1e-15, lam / shrink, np.inf)
            theta = min(1.0, float(np.min(ratios)))
            lam = (1 - theta) * lam + theta * mu
            keep = lam > 1e-12
            if keep.all():
                keep[int(np.argmin(lam))] = False
            points = [p for p, k in zip(points, keep) if k]
            lam = lam[keep]
            total = lam.sum()
            lam = lam / total if total > 0 else np.ones(len(points)) / len(points)
            x = lam @ np.array(points)
    raise MaxIterationsExceeded(
        f"minimum-norm point did not converge in {max_major} major cycles",
        best_point={e: float(x[i]) for i, e in enumerate(f.ground)},
        best_set=best_members,
        gap=float(best_value) - float(np.minimum(x, 0.0).sum()))
