"""Subset entropy oracles for the three supported source models.

A model assigns a joint entropy H(X_S) to every subset S of source nodes:

* ``LinearSource`` -- each node observes a fixed F_q-linear image of a
  uniform data vector; H(X_S) equals the rank of the stacked observation
  matrices, measured in packet units.  Exact.
* ``TabularSource`` -- an explicit subset -> entropy table.  Exact.
* ``PmfSource`` -- a dense joint probability table; marginal Shannon
  entropies in bits, computed in floating point and rationalized to an
  absolute 2**-40 grid (documented approximate path).

The oracle memoizes by subset bitmask, so repeated evaluations during
submodular minimization are cheap and deterministic.  It also fills whole
tables: :meth:`EntropyOracle.table` gives the entropy of every subset of a
node set, which a linear model computes in one depth-first rank sweep over
the subset tree (:meth:`LinearSource.rank_table`) instead of one Gaussian
elimination per subset; the other models are evaluated subset by subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import gf
from .errors import InvalidInstance, InvalidParameters, UnknownSubset
from .submodular import members, modular_table

PMF_ROUND_BITS = 40
PMF_TABLE_CAP = 2 ** 20
POLYMATROID_EXHAUSTIVE = 12


@dataclass(frozen=True)
class LinearSource:
    """Observations X_m = A_m @ W with W uniform over F_q^N."""

    q: int
    n_packets: int                      # N, length of the data vector W
    matrices: dict                      # node -> FieldMatrix (ell_m x N)
    unit: str = "packets"

    def __post_init__(self):
        if not gf.is_field_modulus(self.q):
            raise InvalidInstance(f"linear model requires a prime q below 2^64, got q={self.q}")
        for node, m in self.matrices.items():
            if m.cols != self.n_packets:
                raise InvalidInstance(
                    f"observation matrix of {node} has {m.cols} columns, expected {self.n_packets}")
            if m.q != self.q:
                raise InvalidInstance(f"observation matrix of {node} is over F_{m.q}, expected F_{self.q}")

    def matrix_for(self, node) -> gf.FieldMatrix:
        # absent nodes are relays: zero-row observation, zero entropy
        return self.matrices.get(node, gf.FieldMatrix.zeros(0, self.n_packets, self.q))

    def stacked(self, nodes) -> gf.FieldMatrix:
        # relays (absent nodes) observe nothing and add no rows
        blocks = [self.matrices[node] for node in nodes if node in self.matrices]
        rows = [m.row(i) for m in blocks for i in range(m.rows)]
        return gf.FieldMatrix.from_rows(rows, self.q, cols=self.n_packets)

    def entropy(self, nodes) -> Fraction:
        return Fraction(gf.rank(self.stacked(nodes)))

    def rank_table(self, nodes) -> list:
        """Rank of the stacked observations of every subset of ``nodes``, by local mask.

        Bit i of a mask is ``nodes[i]``.  One depth-first sweep over the
        subset tree, in which the children of S are S + v for v after every
        member of S: a child extends its parent's echelon basis by reducing
        v's rows alone against it, and a relay (no rows) keeps its parent's
        basis.  A basis of rank N spans F_q^N, so every mask under it is N
        and is filled without a sweep.  Equals ``gf.rank(self.stacked(S))``,
        the per-subset path, on every subset S.
        """
        q, full = self.q, self.n_packets
        blocks = [self.matrix_for(v) for v in nodes]
        blocks = [[m.row(i) for i in range(m.rows)] for m in blocks]
        n = len(blocks)
        table = [0] * (1 << n)

        def extend(basis, rows):
            # basis: (pivot, row) pairs; each row is 1 at its pivot and 0 at
            # the pivots of the rows before it, so one pass reduces a new row
            for row in rows:
                for p, b in basis:
                    f = row[p]
                    if f:
                        row = [(x - f * y) % q for x, y in zip(row, b)]
                for pivot, x in enumerate(row):
                    if x:
                        inv = pow(x, -1, q)
                        basis = basis + [(pivot, [y * inv % q for y in row])]
                        break
            return basis

        def sweep(mask, basis, start):
            for v in range(start, n):
                child = mask | 1 << v
                grown = extend(basis, blocks[v])
                if len(grown) == full:
                    # child | T for every T over the bits above v: stride 2^(v+1)
                    table[child::2 << v] = [full] * (1 << (n - 1 - v))
                else:
                    table[child] = len(grown)
                    sweep(child, grown, v + 1)

        sweep(0, [], 0)
        return table


@dataclass(frozen=True)
class TabularSource:
    """Explicit subset-entropy table over a fixed ground set."""

    ground: tuple
    entropies: dict                     # frozenset -> Fraction, all nonempty subsets
    unit: str = "packets"

    def entropy(self, nodes) -> Fraction:
        key = frozenset(nodes)
        if not key:
            return Fraction(0)
        if key not in self.entropies:
            raise UnknownSubset(f"no entropy entry for subset {sorted(key)}")
        return self.entropies[key]


@dataclass(frozen=True)
class PmfSource:
    """Dense joint pmf over finite per-node alphabets; entropies in bits."""

    order: tuple                        # node evaluation order for the table
    alphabets: dict                     # node -> alphabet size
    table: dict                         # outcome tuple -> Fraction probability
    unit: str = "bits"

    def __post_init__(self):
        size = 1
        for node in self.order:
            size *= self.alphabets[node]
        if size > PMF_TABLE_CAP:
            raise InvalidInstance(f"joint alphabet size {size} exceeds cap {PMF_TABLE_CAP}")
        total = sum(self.table.values(), Fraction(0))
        if total != 1:
            raise InvalidInstance(f"joint pmf sums to {total}, expected 1")

    @property
    def rounding_slack(self) -> Fraction:
        # entropies are snapped independently; inequality checks on up to
        # four of them must absorb the accumulated grid error
        return Fraction(1, 2 ** (PMF_ROUND_BITS - 2))

    def entropy(self, nodes) -> Fraction:
        keep = [i for i, node in enumerate(self.order) if node in set(nodes)]
        marginal: dict = {}
        for outcome, p in self.table.items():
            if p == 0:
                continue
            k = tuple(outcome[i] for i in keep)
            marginal[k] = marginal.get(k, Fraction(0)) + p
        h = -sum(float(p) * math.log2(float(p)) for p in marginal.values() if p > 0)
        # snap to a fixed binary grid so results are reproducible rationals
        return Fraction(round(h * 2 ** PMF_ROUND_BITS), 2 ** PMF_ROUND_BITS)


@dataclass
class EntropyOracle:
    """Memoizing subset-entropy function over an ordered ground set."""

    ground: tuple
    model: object
    unit: str = "packets"
    _index: dict = field(init=False, repr=False)
    _memo: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {node: i for i, node in enumerate(self.ground)}
        self._memo = {0: Fraction(0)}

    @classmethod
    def from_model(cls, ground, model) -> "EntropyOracle":
        return cls(tuple(ground), model, unit=model.unit)

    def mask(self, nodes) -> int:
        """Bitmask of the nodes over the oracle's ground order."""
        mask = 0
        for node in nodes:
            try:
                mask |= 1 << self._index[node]
            except KeyError:
                raise UnknownSubset(f"{node!r} is not in the ground set") from None
        return mask

    def entropy(self, nodes) -> Fraction:
        """H(X_S) for S = nodes, in the oracle's declared unit."""
        return self.entropy_of_mask(self.mask(nodes))

    def entropy_of_mask(self, mask: int) -> Fraction:
        """H(X_S) for the S given as a bitmask over the ground order."""
        hit = self._memo.get(mask)
        if hit is None:
            hit = self._memo[mask] = self.model.entropy(members(self.ground, mask))
        return hit

    def table(self, nodes) -> list:
        """H(X_S) for every subset S of nodes, indexed by local mask (bit i is ``nodes[i]``).

        The nodes must be distinct (InvalidParameters otherwise).  Each value is memoized under its global mask as well, so later
        :meth:`entropy` calls on these subsets are hits.  A model with a
        ``rank_table`` (the linear one) fills the table in one sweep, one
        shared Fraction per rank; the others are evaluated per mask.
        """
        nodes = tuple(nodes)
        if len(set(nodes)) < len(nodes):
            raise InvalidParameters(f"repeated node in {nodes}")
        masks = modular_table(self.mask((v,)) for v in nodes)    # distinct bits: sums are unions
        rank_table = getattr(self.model, "rank_table", None)
        if rank_table is None:
            return [self.entropy_of_mask(m) for m in masks]
        ranks = rank_table(nodes)
        values = [Fraction(r) for r in range(ranks[-1] + 1)]    # the full set has the top rank
        table = [values[r] for r in ranks]
        self._memo.update(zip(masks, table))
        return table

    def conditional(self, nodes, within) -> Fraction:
        """H(X_S | X_{G \\ S}) for S = nodes inside the ground subset G = within."""
        g = frozenset(within)
        s = frozenset(nodes)
        if not s <= g:
            raise UnknownSubset(f"{sorted(s - g)} not contained in the conditioning ground set")
        return self.entropy(g) - self.entropy(g - s)


@dataclass
class PolymatroidReport:
    normalized: bool
    monotone_violations: list
    submodular_violations: list
    exhaustive: bool
    pairs_checked: int          # inequalities checked (exhaustive) or pairs sampled

    @property
    def ok(self) -> bool:
        return self.normalized and not self.monotone_violations and not self.submodular_violations


def validate_polymatroid(oracle: EntropyOracle, samples: int = 2000) -> PolymatroidReport:
    """Check H(0)=0, monotonicity and submodularity of the oracle.

    Exhaustive when the ground set N has at most ``POLYMATROID_EXHAUSTIVE``
    elements: Yeung's elemental inequalities H(N) >= H(N - i) and
    H(iK) + H(jK) >= H(ijK) + H(K) for i < j, K in N - {i, j}, which with
    H(0) = 0 are equivalent to the polymatroid axioms; ``pairs_checked``
    then counts those n + C(n, 2) 2^(n-2) inequalities.  Otherwise
    ``samples`` random subset pairs drawn from a generator seeded with 0
    are checked for monotonicity and submodularity.
    Models with an approximate entropy path declare a ``rounding_slack``
    that the inequality checks absorb; each involves at most 4 entropies.
    """
    import random

    n = len(oracle.ground)
    slack = getattr(oracle.model, "rounding_slack", Fraction(0))
    normalized = oracle.entropy(()) == 0
    mono: list = []
    sub: list = []

    def check_pair(a_mask: int, b_mask: int):
        a = members(oracle.ground, a_mask)
        b = members(oracle.ground, b_mask)
        ha, hb = oracle.entropy(a), oracle.entropy(b)
        cap = oracle.entropy(members(oracle.ground, a_mask & b_mask))
        cup = oracle.entropy(members(oracle.ground, a_mask | b_mask))
        if cap > ha + slack:  # A cap B is a subset of A and must not exceed its entropy
            mono.append((members(oracle.ground, a_mask & b_mask), a, cap, ha))
        if a_mask & b_mask == a_mask and ha > hb + slack:
            mono.append((a, b, ha, hb))
        if ha + hb < cup + cap - slack:
            sub.append((a, b, ha + hb, cup + cap))

    if n <= POLYMATROID_EXHAUSTIVE:
        ground = oracle.ground
        h = oracle.table(ground)        # local masks over the ground are the global ones
        full = (1 << n) - 1
        for i in range(n):
            rest = full & ~(1 << i)
            if h[rest] > h[full] + slack:
                mono.append((members(ground, rest), members(ground, full), h[rest], h[full]))
        count = n
        for i in range(n):
            for j in range(i + 1, n):
                pair = 1 << i | 1 << j
                for k in range(1 << n):
                    if k & pair:
                        continue
                    lhs = h[k | 1 << i] + h[k | 1 << j]
                    rhs = h[k | pair] + h[k]
                    if lhs < rhs - slack:
                        sub.append((members(ground, k | 1 << i), members(ground, k | 1 << j),
                                    lhs, rhs))
                    count += 1
        return PolymatroidReport(normalized, mono, sub, True, count)

    rng = random.Random(0)
    for _ in range(samples):
        check_pair(rng.randrange(1 << n), rng.randrange(1 << n))
    return PolymatroidReport(normalized, mono, sub, False, samples)


def tabular_from_oracle(oracle: EntropyOracle) -> TabularSource:
    """Materialize the full subset table of an oracle, in its unit.

    Grounds above ``submodular.BRUTE_FORCE_LIMIT`` raise GroundTooLarge.
    """
    h = oracle.table(oracle.ground)
    table = {frozenset(members(oracle.ground, mask)): h[mask] for mask in range(1, len(h))}
    return TabularSource(oracle.ground, table, unit=oracle.unit)


def pmf_from_nested(order, alphabets, nested) -> PmfSource:
    """Build a PmfSource from a nested-list table in the given node order."""
    order = tuple(order)
    sizes = [alphabets[node] for node in order]
    table = {}
    for outcome in product(*[range(s) for s in sizes]):
        cell = nested
        for i in outcome:
            cell = cell[i]
        p = cell if isinstance(cell, Fraction) else Fraction(cell)
        if p < 0:
            raise InvalidInstance("negative probability in pmf table")
        if p:
            table[outcome] = p
    return PmfSource(order, dict(alphabets), table)
