"""Submodular minimization and base-polyhedron primitives.

Two minimization engines are provided, both exact: a brute-force
enumeration (the reference path, ground sets up to 20 elements) and the
Fujishige-Wolfe minimum-norm-point method, which has no cap on the ground
and returns the same minimizer.  Set functions evaluate to exact rationals; the ground set is an ordered tuple
and subsets are handled as bitmasks internally (bit i is ``ground[i]``).

A set function is either lazy (each mask evaluated on first use) or
tabulated: every mask's value given up front as one list indexed by mask.
Such lists are filled by list passes that double the table once per
element, as :func:`modular_table` does: the masks with the new top bit
are the earlier masks, each shifted by that element's contribution.

Tie-breaking for minimizers is fixed everywhere: smallest cardinality
first, then lexicographically earliest element-index tuple, so certificates
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GroundTooLarge, InvalidParameters, MaxIterationsExceeded

BRUTE_FORCE_LIMIT = 20


def members(ground, mask: int) -> tuple:
    """The elements of the ordered ground set selected by the bitmask."""
    return tuple(e for i, e in enumerate(ground) if mask >> i & 1)


def _check_enumerable(n: int) -> None:
    if n > BRUTE_FORCE_LIMIT:
        raise GroundTooLarge(f"{n} elements exceeds brute-force limit {BRUTE_FORCE_LIMIT}")


def modular_table(weights) -> list:
    """x(S) = sum of weights[i] over the bits i of S, for every mask S."""
    weights = list(weights)
    _check_enumerable(len(weights))
    table = [0]
    for w in weights:
        table += [x + w for x in table]
    return table


@dataclass
class SetFunction:
    """A rational-valued set function over an ordered ground set."""

    ground: tuple
    evaluate: object            # callable(tuple of elements) -> Fraction; None if tabulated
    kind: str = "unknown"       # {"submodular", "supermodular", "unknown"}

    def __post_init__(self):
        self._memo: dict | list = {}      # mask -> value; a list when tabulated
        self._index = {e: i for i, e in enumerate(self.ground)}

    @classmethod
    def tabulated(cls, ground, values: list, kind: str = "unknown") -> "SetFunction":
        """Set function whose value at every mask is given: values[mask].

        The list itself is the table, so it covers all 2^n masks.  Entries
        may be ints where the value is integral (exact, and faster to
        compare); :func:`sfm_brute_force` still returns a Fraction.
        """
        f = cls(tuple(ground), None, kind)
        f._memo = values
        return f

    def mask(self, nodes) -> int:
        mask = 0
        for v in nodes:
            mask |= 1 << self._index[v]
        return mask

    def value(self, mask: int) -> Fraction:
        try:
            return self._memo[mask]
        except KeyError:
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
                    key=lambda mask: (mask.bit_count(), members(range(n), mask)))
    return members(f.ground, best_mask), Fraction(best_val)


def _greedy_vertex(f: SetFunction, order) -> list:
    """Greedy vertex for an ordering of element indices, as a list indexed like the ground."""
    x = [0] * len(f.ground)
    mask, prev = 0, f.value(0)
    for i in order:
        mask |= 1 << i
        cur = f.value(mask)
        x[i] = cur - prev
        prev = cur
    return x


def greedy_base_vertex(f: SetFunction, ordering) -> dict:
    """Greedy vertex of the base polyhedron for the given element ordering.

    x[e_i] = f({e_1..e_i}) - f({e_1..e_{i-1}}); the components always sum
    to f(ground).  Valid for submodular f (vertices of B(f)) and, with the
    inequalities reversed, for supermodular f.
    """
    try:
        order = [f._index[e] for e in ordering]
    except (KeyError, TypeError) as exc:
        raise InvalidParameters(f"ordering has an element outside the ground set: {exc}") from exc
    if sorted(order) != list(range(len(f.ground))):
        raise InvalidParameters("ordering must be a permutation of the ground set")
    x = _greedy_vertex(f, order)
    return {f.ground[i]: x[i] for i in order}


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
    if x.keys() != set(f.ground):
        raise InvalidParameters("the point needs exactly one coordinate per ground element")
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


def _dot(p: list, q: list):
    return sum(a * b for a, b in zip(p, q))


def _affine_minimizer(gram: list) -> list:
    """Weights mu, summing to 1, of the min-norm point of the points' affine hull.

    Solves the bordered system [0 1'; 1 G] [s; mu] = [1; 0] over the Gram
    matrix G by exact Gauss-Jordan elimination.
    """
    size = len(gram) + 1
    a = [[0] + [1] * len(gram) + [1]] + [[1] + row + [0] for row in gram]
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col]), None)
        if pivot is None:
            raise RuntimeError("Wolfe's corral is affinely dependent")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / Fraction(a[col][col])
        row = a[col] = [v * inv for v in a[col]]
        for r in range(size):
            factor = a[r][col]
            if r != col and factor:
                a[r] = [v - factor * w for v, w in zip(a[r], row)]
    return [a[r][-1] for r in range(1, size)]


def _negative_part(x: list):
    """The mask of {x < 0} and x^-(ground), the sum of the negative entries."""
    return sum(1 << i for i, v in enumerate(x) if v < 0), sum(v for v in x if v < 0)


def min_norm_point(f: SetFunction, max_major: int = 10000):
    """Fujishige-Wolfe minimum-norm point in the base polyhedron of f, exact.

    Returns ``(x, members, value)``: the min-norm point x* keyed by ground
    element (exact rationals), S = {x* < 0} and f(S).  Requires submodular
    f with f(empty) = 0: an f whose kind is not declared "submodular"
    raises InvalidParameters.  Then x* lies in B(f), so x*^-(ground) <= f(T)
    for every T, and S is accepted only when x*^-(ground) == f(S) (Edmonds'
    min-max theorem); a failed check proves f is not submodular and raises
    InvalidParameters.  {x* < 0} is the unique inclusion-minimal minimizer
    (Fujishige), so ``(members, value)`` equals :func:`sfm_brute_force`'s.
    """
    if f.kind != "submodular":
        raise InvalidParameters("min_norm_point requires a declared submodular kind")
    if f.value(0) != 0:
        raise InvalidParameters("min_norm_point requires f(empty) = 0")
    n = len(f.ground)
    x = _greedy_vertex(f, range(n))
    points, lam, gram = [x], [Fraction(1)], [[_dot(x, x)]]
    for _ in range(max_major):
        q = _greedy_vertex(f, sorted(range(n), key=x.__getitem__))
        if _dot(x, x) <= _dot(x, q):
            mask, lower = _negative_part(x)
            if f.value(mask) != lower:
                raise InvalidParameters(
                    f"f is not submodular: f(S) = {f.value(mask)} at S = {{x* < 0}}, "
                    f"but x*^-(ground) = {lower}")
            return dict(zip(f.ground, x)), members(f.ground, mask), f.value(mask)
        cross = [_dot(p, q) for p in points]
        gram = [row + [c] for row, c in zip(gram, cross)] + [cross + [_dot(q, q)]]
        points.append(q)
        lam.append(Fraction(0))
        while True:
            mu = _affine_minimizer(gram)
            if min(mu) > 0:
                lam = mu
                break
            # step toward the affine minimizer until a convex weight reaches 0
            theta = min(l / (l - m) for l, m in zip(lam, mu) if m <= 0)
            lam = [l + theta * (m - l) for l, m in zip(lam, mu)]
            keep = [i for i, l in enumerate(lam) if l > 0]
            points, lam = [points[i] for i in keep], [lam[i] for i in keep]
            gram = [[gram[i][j] for j in keep] for i in keep]
        x = [_dot(lam, column) for column in zip(*points)]
    mask, lower = _negative_part(x)
    raise MaxIterationsExceeded(
        f"minimum-norm point did not converge in {max_major} major cycles",
        best_point=dict(zip(f.ground, x)),
        best_set=members(f.ground, mask),
        gap=f.value(mask) - lower)
