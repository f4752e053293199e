"""Subset entropy oracles for the three supported source models.

A model assigns a joint entropy H(X_S) to every subset S of source nodes:

* ``LinearSource`` -- each node observes a fixed F_q-linear image of a
  uniform data vector; H(X_S) equals the rank of the stacked observation
  matrices, measured in packet units.  Exact.  When every row of a node
  is zero or a nonzero multiple of a unit vector e_j, the node holds a set
  of packets (the paper's case (i)), and the rank of a set of such nodes
  is the number of distinct packets they hold.  Other rows are the
  paper's case (ii), ranked by Gaussian elimination.
* ``TabularSource`` -- an explicit subset -> entropy table.  Exact.
* ``PmfSource`` -- a dense joint probability table; marginal Shannon
  entropies in bits, computed in floating point and rationalized to an
  absolute 2**-40 grid (documented approximate path).

The oracle memoizes per-subset evaluations by bitmask, so repeated
evaluations during submodular minimization are cheap and deterministic.
Whole tables are another path: :meth:`EntropyOracle.table` gives the
entropy of every subset of a node set.  A linear model computes it in one
pass (:meth:`LinearSource.rank_table`): by OR-doubling and popcount over
packet sets in case (i), else one depth-first rank sweep over the subset
tree, instead of one Gaussian elimination per subset; that table is handed
out as it is and writes nothing to the memo.  The other models are
evaluated subset by subset through the memo.
:meth:`EntropyOracle.conditional_table` keeps the conditional entropies of
each node tuple, filled once from that table and shared by every caller.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import gf
from .errors import InvalidInstance, InvalidParameters, UnknownSubset
from .lp import integral
from .submodular import check_enumerable, members, modular_table

PMF_ROUND_BITS = 40
PMF_TABLE_CAP = 2 ** 20
POLYMATROID_EXHAUSTIVE = 12
POLYMATROID_SAMPLES = 2000


def check_linear_parameters(q: int, n_packets: int) -> None:
    """InvalidInstance unless q is a field modulus and N = n_packets >= 0."""
    if not gf.is_field_modulus(q):
        raise InvalidInstance(f"linear model requires a prime q below 2^64, got q={q}")
    if n_packets < 0:
        raise InvalidInstance(f"linear model requires N >= 0 packets, got N={n_packets}")


@dataclass(frozen=True)
class LinearSource:
    """Observations X_m = A_m @ W with W uniform over F_q^N.

    A node whose every row is zero or c * e_j (c != 0) holds the packets j
    of those rows; its held-packets bitmask (bit j is packet j) is found
    once, here.  A relay holds nothing.  A node with a row of two or more
    nonzeros has no mask, and :meth:`entropy` or a :meth:`rank_table` over a
    tuple containing it eliminates; any other tuple counts held packets.
    """

    q: int
    n_packets: int                      # N, length of the data vector W
    matrices: dict                      # node -> FieldMatrix (ell_m x N)
    unit: str = "packets"
    _held: dict = field(init=False, repr=False, compare=False)   # node -> bitmask or None

    def __post_init__(self):
        check_linear_parameters(self.q, self.n_packets)
        held = {}
        for node, m in self.matrices.items():
            if m.cols != self.n_packets:
                raise InvalidInstance(
                    f"observation matrix of {node} has {m.cols} columns, expected {self.n_packets}")
            if m.q != self.q:
                raise InvalidInstance(f"observation matrix of {node} is over F_{m.q}, expected F_{self.q}")
            bits = 0
            for i in range(m.rows):
                nonzero = [j for j, x in enumerate(m.row(i)) if x]
                if len(nonzero) > 1:
                    bits = None
                    break
                if nonzero:
                    bits |= 1 << nonzero[0]
            held[node] = bits
        object.__setattr__(self, "_held", held)

    def matrix_for(self, node) -> gf.FieldMatrix:
        # absent nodes are relays: zero-row observation, zero entropy
        return self.matrices.get(node, gf.FieldMatrix.zeros(0, self.n_packets, self.q))

    def stacked(self, nodes) -> gf.FieldMatrix:
        # relays (absent nodes) observe nothing and add no rows
        blocks = [self.matrices[node] for node in nodes if node in self.matrices]
        rows = [m.row(i) for m in blocks for i in range(m.rows)]
        return gf.FieldMatrix._of(len(rows), self.n_packets,
                                  tuple([x for r in rows for x in r]), self.q)

    def entropy(self, nodes) -> Fraction:
        held = [self._held.get(v, 0) for v in nodes]        # relays hold nothing
        if None in held:
            return Fraction(gf.rank(self.stacked(nodes)))
        union = 0
        for bits in held:
            union |= bits
        return Fraction(union.bit_count())

    def rank_table(self, nodes) -> list:
        """Rank of the stacked observations of every subset of ``nodes``, by local mask.

        Bit i of a mask is ``nodes[i]``.  When every node holds a packet set
        (case (i)), the rank of S is the number of packets its members hold
        between them: the held sets of all subsets are built by doubling the
        list once per node, ORing the node's set into the earlier entries
        (copying them for a node that holds nothing), and each is counted
        by ``bit_count``.

        Otherwise (case (ii)), one depth-first sweep over the subset tree,
        in which the children of S are S + v for v after every member of S:
        a child extends its parent's semi-echelon basis by reducing v's rows
        alone against it (:func:`gf.reduce_row`), and a relay (no rows)
        keeps its parent's basis.
        A basis of rank N spans F_q^N, so every mask under it is N and is
        filled without a sweep.

        Either way it equals ``gf.rank(self.stacked(S))`` on every subset
        S, as the per-subset :meth:`entropy` does.
        """
        held = [self._held.get(v, 0) for v in nodes]       # relays hold nothing
        if None not in held:
            union = [0]
            for bits in held:
                if bits:
                    union += [x | bits for x in union]
                else:                   # holds nothing: the new half is a copy
                    union += union
            return [x.bit_count() for x in union]
        return self._rank_sweep(nodes)

    def _rank_sweep(self, nodes) -> list:
        """:meth:`rank_table` by elimination, for nodes of any observation matrices."""
        q, full = self.q, self.n_packets
        blocks = [self.matrix_for(v) for v in nodes]
        blocks = [[m.row(i) for i in range(m.rows)] for m in blocks]
        n = len(blocks)
        table = [0] * (1 << n)

        def sweep(mask, basis, start):
            for v in range(start, n):
                child = mask | 1 << v
                grown = basis
                for row in blocks[v]:
                    reduced = gf.reduce_row(grown, row, q)
                    if reduced is not None:
                        grown = grown + [reduced]       # a copy: basis is shared by v's siblings
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
        wanted = set(nodes)
        keep = [i for i, node in enumerate(self.order) if node in wanted]
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
    """Memoizing subset-entropy function over an ordered ground set.

    Besides the per-mask memo it keeps, per node tuple G, the conditional
    table of :meth:`conditional_table`.  That table is a read-only tuple
    filled once from :meth:`table` and shared: every client and every stage
    that asks for the same G on this oracle reads the same object.
    """

    ground: tuple
    model: object
    unit: str = "packets"
    _index: dict = field(init=False, repr=False)
    _memo: dict = field(init=False, repr=False)
    _conditional: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {node: i for i, node in enumerate(self.ground)}
        self._memo = {0: Fraction(0)}
        self._conditional = {}

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

        The nodes must be distinct ground nodes (InvalidParameters or
        UnknownSubset otherwise), at most ``submodular.BRUTE_FORCE_LIMIT``
        of them (GroundTooLarge, before any table is built).  Entries are
        exact: ints where the value is integral, Fractions elsewhere.  A
        model with a ``rank_table`` (the linear one) fills the table in one
        pass, by set union over held packets or else by one elimination
        sweep, and the table is that rank list, unchanged: nothing is
        memoized, so a later :meth:`entropy` call evaluates the model
        itself.  The other models are evaluated per mask through the memo.
        """
        nodes = tuple(nodes)
        if len(set(nodes)) < len(nodes):
            raise InvalidParameters(f"repeated node in {nodes}")
        bits = [self.mask((v,)) for v in nodes]
        check_enumerable(len(bits))
        rank_table = getattr(self.model, "rank_table", None)
        if rank_table is not None:
            return rank_table(nodes)
        return [integral(self.entropy_of_mask(m)) for m in modular_table(bits)]  # sums are unions

    def conditional_table(self, nodes) -> tuple:
        """g(S) = H(G) - H(G \\ S) for every subset S of G = nodes, indexed by local mask.

        Bit i of a mask is ``nodes[i]``, so the table is kept under the exact
        tuple: a reordering of G is another table.  The first call for a
        tuple fills it from :meth:`table` (a linear model's rank table
        writes nothing to the per-mask memo); later calls return the same
        tuple.  Entries are exact, as in :meth:`table`.
        """
        nodes = tuple(nodes)
        g = self._conditional.get(nodes)
        if g is None:
            h = self.table(nodes)
            top = h[-1]
            # mask ^ full runs from full down to 0, so G \ S is read back to front
            g = self._conditional[nodes] = tuple([top - x for x in reversed(h)])
        return g

    def conditional(self, nodes, within) -> Fraction:
        """H(X_S | X_{G \\ S}) for S = nodes inside the ground subset G = within."""
        g = frozenset(within)
        s = frozenset(nodes)
        if not s <= g:
            raise UnknownSubset(f"{sorted(s - g)} not contained in the conditioning ground set")
        return self.entropy(g) - self.entropy(g - s)


@dataclass
class PolymatroidReport:
    """The elemental inequalities that :func:`validate_polymatroid` found violated."""

    monotone_violations: list   # (N - {i}, N, H(N - {i}), H(N))
    submodular_violations: list  # (iK, jK, H(iK) + H(jK), H(ijK) + H(K)), tuples in ground order
    exhaustive: bool
    pairs_checked: int          # elemental inequalities checked

    @property
    def ok(self) -> bool:
        return not self.monotone_violations and not self.submodular_violations


def validate_polymatroid(oracle: EntropyOracle) -> PolymatroidReport:
    """Check the oracle against Yeung's elemental inequalities on its ground set N, |N| = n.

    They are H(N) >= H(N - {i}) for each i and H(iK) + H(jK) >= H(ijK) +
    H(K) for i < j, K in N - {i, j}; with H(0) = 0, which every oracle
    holds, they are equivalent to the polymatroid axioms.  Up to
    ``POLYMATROID_EXHAUSTIVE`` elements all n + C(n, 2) 2^(n-2) are checked
    on the oracle's table of N.  Above, the n monotone ones and
    ``POLYMATROID_SAMPLES`` submodular ones are, read through the memo:
    each draws i < j uniformly, then K uniformly in N - {i, j}, from
    ``random.Random(0)``.  ``pairs_checked`` counts the inequalities checked.
    Models with an approximate entropy path declare a ``rounding_slack``
    that the inequality checks absorb; each involves at most 4 entropies.
    """
    ground, n = oracle.ground, len(oracle.ground)
    slack = getattr(oracle.model, "rounding_slack", Fraction(0))
    full = (1 << n) - 1
    exhaustive = n <= POLYMATROID_EXHAUSTIVE
    if exhaustive:
        h = oracle.table(ground)        # local masks over the ground are the global ones
        # every K outside {i, j}, in increasing order
        pairs = [(1 << i, 1 << j, modular_table(1 << v for v in range(n) if v != i and v != j))
                 for i in range(n) for j in range(i + 1, n)]
    else:
        rng = random.Random(0)
        pairs = []
        for _ in range(POLYMATROID_SAMPLES):
            i, j = sorted(rng.sample(range(n), 2))
            pairs.append((1 << i, 1 << j, [rng.getrandbits(n) & ~(1 << i | 1 << j)]))
        masks = {full} | {full ^ 1 << i for i in range(n)}
        masks.update(k | x for a, b, (k,) in pairs for x in (0, a, b, a | b))
        h = {mask: oracle.entropy_of_mask(mask) for mask in masks}

    mono = [(members(ground, full ^ 1 << i), ground, h[full ^ 1 << i], h[full])
            for i in range(n) if h[full ^ 1 << i] > h[full] + slack]
    sub: list = []
    for bit_i, bit_j, ks in pairs:
        pair = bit_i | bit_j
        for k in ks:
            lhs = h[k | bit_i] + h[k | bit_j]
            rhs = h[k | pair] + h[k]
            if lhs < rhs - slack:
                sub.append((members(ground, k | bit_i), members(ground, k | bit_j), lhs, rhs))
    return PolymatroidReport(mono, sub, exhaustive, n + sum(len(ks) for _, _, ks in pairs))


def pmf_from_nested(order, alphabets, nested) -> PmfSource:
    """Build a PmfSource from a nested-list table, level k a list of alphabets[order[k]]."""
    order = tuple(order)
    if len(set(order)) != len(order):
        raise InvalidInstance(f"pmf order {list(order)} names a node twice")
    cells = [nested]                # one level of the table at a time, in outcome order
    for node in order:
        if any(not isinstance(c, list) or len(c) != alphabets[node] for c in cells):
            raise InvalidInstance(f"pmf table level of {node!r} must list {alphabets[node]} items")
        cells = [x for c in cells for x in c]
    if any(isinstance(c, list) for c in cells):
        raise InvalidInstance("pmf table entries must be probabilities, not lists")
    probs = [Fraction(c) for c in cells]
    if min(probs, default=0) < 0:
        raise InvalidInstance("negative probability in pmf table")
    outcomes = product(*[range(alphabets[v]) for v in order])
    return PmfSource(order, dict(alphabets), {o: p for o, p in zip(outcomes, probs) if p})
