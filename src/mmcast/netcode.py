"""Explicit network codes for the finite linear source model.

A feasible rate vector is turned into a unit-capacity symbol network: a
super node holding the whole data vector feeds each source a basis of its
observation space, and every graph edge becomes beta * R_e parallel
channels (beta clears rate denominators by coding over that many blocks).
Local mixing coefficients then define global coding vectors and the
per-client transfer matrices M(t) = A (I - Gamma)^-1 B(t).  No c x c matrix
is inverted: (I - Gamma) is unipotent in the topological channel order, so
the columns of A (I - Gamma)^-1 are the coding vectors, propagated once per
assignment by forward substitution; M(t) is a slice of them, and each client
decodes through the inverse of one n x n block of M(t).

The substitution runs on packed integers: a coding vector is also held as
one int whose lane i, ``width`` bits wide, holds entry i.  A channel's
vector is then one big-int multiply-add per nonzero coefficient and one
reduction mod q per lane.  ``width`` is the bit length of the largest
unreduced lane, max in-degree * (q - 1)^2, so no lane carries into the
next.  Coefficients are drawn uniformly from F_q by a stated, seeded
stream (see :func:`assign_coefficients`), and each client's rank is
checked by eliminating its received vectors directly, retrying on failure;
the greedy bases of that elimination pick the blocks the decoders invert.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import lshift, mul
from typing import NamedTuple

from . import gf
from .entropy import EntropyOracle, LinearSource
from .errors import (FieldTooSmall, InfeasibleRates, InvalidParameters, NotLinearModel,
                     RankDeficient, ReconstructabilityViolated, ScaleOverflow,
                     UnknownEdgeRate, VerificationFailedAllAttempts)
from .feasibility import check_feasible_multi
from .gf import FieldMatrix
from .model import NetworkInstance

BETA_CAP = 2 ** 12
DEFAULT_MAX_ATTEMPTS = 64


class Channel(NamedTuple):
    index: int
    kind: str                   # "source" | "edge"
    tail: str
    head: str
    edge_id: str | None
    label: str


@dataclass
class CodedNetwork:
    instance: NetworkInstance
    q: int
    beta: int                   # block scale factor
    n_symbols: int              # beta * N, N the packets per coding block
    channels: tuple
    inputs: tuple               # per channel: indices of channels feeding it
    source_matrix: FieldMatrix  # n_symbols x channel count; edge columns are zero
    sink_channels: dict         # client -> tuple of incoming channel indices
    rates: dict                 # the rational per-edge rates the network realizes

    @property
    def clients(self):
        return self.instance.clients

    def edge_symbol_counts(self) -> dict:
        return {e: r.numerator * (self.beta // r.denominator) for e, r in self.rates.items()}


@dataclass
class CodeAssignment:
    coefficients: dict          # (feeding index, fed index) -> int in [0, q)
    global_vectors: tuple       # per channel: tuple of n_symbols field elements
    attempts: int
    bases: dict                 # client -> indices of the greedy basis of its received vectors


def _verify_rates_serve_all_clients(instance, oracle, rates):
    """Every client's rate-flow region must contain a point dominated by the rates.

    This is feasibility of the sub-network whose capacities are the rates
    themselves.  It accepts every per-client region member and also the
    envelopes produced by the multi-client solvers, where another client's
    traffic on an incoming edge can push the envelope's own boundary below
    a subset's conditional entropy without hurting decodability (extra
    received symbols never reduce rank).
    """
    try:
        report = check_feasible_multi(instance, oracle, rates)
    except ReconstructabilityViolated as exc:
        raise InfeasibleRates(str(exc)) from exc
    for cert in report.certificates:
        if not cert.feasible:
            raise InfeasibleRates(
                f"rates cannot serve client {cert.client}: subset {cert.witness_set} needs "
                f"{cert.required} but is granted {cert.cut}")


def build_coded_network(instance: NetworkInstance, source_model,
                        rates: dict, oracle=None) -> CodedNetwork:
    """Expand a feasible rate vector into a unit-capacity symbol network."""
    if not isinstance(source_model, LinearSource):
        raise NotLinearModel("code construction requires the linear source model")
    if oracle is None:
        oracle = EntropyOracle.from_model(instance.sources, source_model)

    known = {e.id for e in instance.edges}
    unknown = set(rates) - known
    if unknown:
        raise UnknownEdgeRate(f"rates given for unknown edges {sorted(unknown)}")
    full_rates = {e.id: Fraction(rates.get(e.id, 0)) for e in instance.edges}
    for e in instance.edges:
        r = full_rates[e.id]
        if r < 0 or r > e.capacity:
            raise InfeasibleRates(f"rate {r} on edge {e.id} outside [0, {e.capacity}]")

    n_packets = source_model.n_packets
    joint_rank = oracle.entropy(instance.sources)       # the rate check reads it from the memo
    if joint_rank < n_packets:
        raise InfeasibleRates(
            f"joint observations have rank {joint_rank} < {n_packets}: "
            "the data vector is not determined by the sources")
    _verify_rates_serve_all_clients(instance, oracle, full_rates)

    beta = math.lcm(*(r.denominator for r in full_rates.values()))
    if beta > BETA_CAP:
        raise ScaleOverflow(f"block scale {beta} exceeds cap {BETA_CAP}")
    n_symbols = beta * n_packets
    q = source_model.q

    super_node = "S"
    while super_node in instance.nodes:
        super_node += "*"

    topo_pos = {v: i for i, v in enumerate(instance.topo_order)}
    channels: list = []
    injected: list = []         # per source channel: (index, first symbol, observation row)

    for m in instance.sources:
        a_m = source_model.matrix_for(m)
        basis = gf.independent_rows(a_m)
        for b in range(beta):
            for r in basis:
                injected.append((len(channels), b * n_packets, a_m.row(r)))
                channels.append(Channel(len(channels), "source", super_node, m, None,
                                        f"{super_node}->{m}#{r}b{b}"))

    for e in sorted(instance.edges, key=lambda e: topo_pos[e.tail]):  # stable: input order
        r = full_rates[e.id]
        for i in range(r.numerator * (beta // r.denominator)):
            channels.append(Channel(len(channels), "edge", e.tail, e.head, e.id,
                                    f"{e.id}#{i}"))

    by_head: dict = {}
    for ch in channels:
        by_head.setdefault(ch.head, []).append(ch.index)
    inputs = tuple(
        tuple(by_head.get(ch.tail, ())) if ch.kind == "edge" else ()
        for ch in channels)

    n_channels = len(channels)
    flat = [0] * (n_symbols * n_channels)
    for c, first, row in injected:      # rows first .. first + N - 1 of column c
        flat[first * n_channels + c:(first + n_packets) * n_channels:n_channels] = row
    source_matrix = FieldMatrix._of(n_symbols, n_channels, tuple(flat), q)
    sinks = {t: tuple(by_head.get(t, ())) for t in instance.clients}
    return CodedNetwork(instance, q, beta, n_symbols, tuple(channels), inputs, source_matrix,
                        sinks, full_rates)


def _input_pairs(net: CodedNetwork) -> list:
    """(feeding, fed) channel pairs in channel-input order, the order coefficients are drawn in.

    Fed channels come in channel order, each with its feeding channels in order.
    """
    return [(src, ch.index) for ch in net.channels for src in net.inputs[ch.index]]


def _received_bases(net: CodedNetwork, vectors) -> dict:
    """Per client, :func:`gf.row_basis` of its received vectors, in sink-channel order."""
    return {t: gf.row_basis([vectors[c] for c in net.sink_channels[t]], net.q)
            for t in net.clients}


def propagate_global_vectors(net: CodedNetwork, assignment: CodeAssignment) -> list:
    """Recompute every channel's coding vector in topological channel order."""
    coefficients = assignment.coefficients
    return _propagate(net, [coefficients.get(pair, 0) for pair in _input_pairs(net)])


def _propagate(net: CodedNetwork, coefficients: list) -> list:
    """Coding vectors of every channel from coefficients in channel-input order.

    Each vector is also packed into one int, entry i in the lane at bit
    i * width.  A channel's packed sum takes one multiply-add per nonzero
    coefficient; each of its lanes is at most max in-degree * (q - 1)^2,
    below 2^width, so the lanes stay apart until each is reduced mod q.
    """
    q = net.q
    width = (max(1, max(map(len, net.inputs), default=0)) * (q - 1) ** 2).bit_length()
    mask = (1 << width) - 1
    shifts = range(0, net.n_symbols * width, width)
    coefficients = iter(coefficients)
    vectors: list = []
    packed: list = []
    for ch, feeding in zip(net.channels, net.inputs):
        if ch.kind == "source":
            vec = net.source_matrix.column(ch.index)
        else:
            acc = 0
            for src, coeff in zip(feeding, coefficients):
                if coeff:
                    acc += coeff * packed[src]
            vec = tuple([(acc >> shift & mask) % q for shift in shifts])
        vectors.append(vec)
        packed.append(sum(map(lshift, vec, shifts)))
    return vectors


def assignment_from_coefficients(net: CodedNetwork, coefficients: dict) -> CodeAssignment:
    """Wrap explicit local coefficients (e.g. hand-built routing codes)."""
    pairs = _input_pairs(net)
    bad = set(coefficients) - set(pairs)
    if bad:
        raise InvalidParameters(f"coefficients on non-adjacent channel pairs: {sorted(bad)}")
    if bad := [v for v in coefficients.values() if int(v) != v]:
        raise InvalidParameters(f"coefficient {bad[0]!r} is not an integer")
    coeffs = {k: int(v) % net.q for k, v in coefficients.items()}
    vectors = _propagate(net, [coeffs.get(pair, 0) for pair in pairs])
    return CodeAssignment(coeffs, tuple(vectors), 1, _received_bases(net, vectors))


def assign_coefficients(net: CodedNetwork, seed: int = 0,
                        max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> CodeAssignment:
    """Draw local coefficients uniformly from F_q until all clients decode.

    Attempt i draws from ``random.Random(seed * 1_000_003 + i)``, one
    coefficient per (feeding, fed) channel pair in channel-input order
    (fed channels in channel order, each with its feeding channels in
    order).  A coefficient is ``getrandbits(q.bit_length())``, drawn again
    while it is >= q: this rejection stream is the definition, and on
    Python >= 3.10 it is also the stream of ``randrange(q)``.  Each
    client's received vectors are eliminated directly for its rank; the
    first attempt at which every client has full rank is returned with
    the attempt count.  Requires q > number of clients, ``max_attempts`` an
    ``int`` >= 1, and a seed that is an ``int`` >= 0: ``random.Random``
    seeds by the absolute value, so a negative seed would share its streams
    with a positive one.
    """
    if type(seed) is not int or seed < 0:
        raise InvalidParameters(f"the code seed must be an int of at least 0, not {seed!r}")
    if type(max_attempts) is not int or max_attempts < 1:
        raise InvalidParameters(
            f"max_attempts must be an int of at least 1, not {max_attempts!r}")
    q = net.q
    k = len(net.clients)
    if q <= k:
        raise FieldTooSmall(f"field size {q} must exceed the client count {k}")
    pairs = _input_pairs(net)
    bits = q.bit_length()
    best_ranks = {t: 0 for t in net.clients}
    for attempt in range(max_attempts):
        draw = random.Random(seed * 1_000_003 + attempt).getrandbits
        coeffs: list = []
        # each batch draws only the values still missing, so coeffs ends as the
        # first len(pairs) draws below q, as one draw at a time would give
        while len(coeffs) < len(pairs):
            coeffs += [x for x in map(draw, repeat(bits, len(pairs) - len(coeffs))) if x < q]
        vectors = _propagate(net, coeffs)
        bases = _received_bases(net, vectors)
        for t, kept in bases.items():
            best_ranks[t] = max(best_ranks[t], len(kept))
        if all(len(kept) == net.n_symbols for kept in bases.values()):
            return CodeAssignment(dict(zip(pairs, coeffs)), tuple(vectors), attempt + 1, bases)
    raise VerificationFailedAllAttempts(
        f"no full-rank assignment in {max_attempts} attempts "
        f"(best ranks {best_ranks}, need {net.n_symbols})",
        max_attempts, best_ranks)


def transfer_matrix(net: CodedNetwork, assignment: CodeAssignment, t: str) -> FieldMatrix:
    """M(t) = A (I - Gamma)^-1 B(t); row vector W . M(t) is what t receives.

    X = A (I - Gamma)^-1 is the solution of X = A + X Gamma.  Channel
    adjacency follows the DAG, so Gamma is strictly upper triangular in the
    topological channel order and forward substitution solves it: column j
    of X is channel j's global coding vector, which the assignment already
    holds.  B(t) keeps the columns of the channels entering t.
    """
    sinks = net.sink_channels[t]
    rows = zip(*[assignment.global_vectors[c] for c in sinks])      # row i: entry i of every vector
    return FieldMatrix._of(net.n_symbols, len(sinks), tuple([x for r in rows for x in r]), net.q)


def build_decoder(net: CodedNetwork, assignment: CodeAssignment, t: str) -> FieldMatrix:
    """Decoder D with D . received = W for every data vector W.

    The received coding vectors, the columns of M(t), were eliminated once
    in sink-channel order when the assignment was made, for its rank check;
    the leftmost linearly independent ones, ``assignment.bases[t]``, are the
    columns of an invertible n x n block B of M(t) and, as given, the rows
    of B^T.  D holds (B^T)^-1 = (B^-1)^T, one more elimination, in those
    columns and zero in the rest, which is the solution of M(t) D^T = I
    with every free variable zero.  Raises RankDeficient when M(t) has rank
    below the expanded data dimension n.
    """
    received = [assignment.global_vectors[c] for c in net.sink_channels[t]]
    n, kept = net.n_symbols, assignment.bases[t]
    if len(kept) < n:
        raise RankDeficient(f"client {t} transfer matrix has rank {len(kept)} < {n}")
    block = tuple([x for k in kept for x in received[k]])
    block_inv = gf.inverse(FieldMatrix._of(n, n, block, net.q))
    cols = len(received)
    entries = [0] * (n * cols)
    for i in range(n):
        for c, x in zip(kept, block_inv.row(i)):
            entries[i * cols + c] = x
    return FieldMatrix._of(n, cols, tuple(entries), net.q)


@dataclass
class ClientDecodeReport:
    received: list
    decoded: list
    exact: bool


@dataclass
class SimulationResult:
    messages: list              # symbol carried by each channel
    clients: dict               # client -> ClientDecodeReport
    edge_symbols: dict          # edge id -> number of symbols transmitted


def simulate(net: CodedNetwork, assignment: CodeAssignment, w) -> SimulationResult:
    """Run the message passes numerically for the data vector w.

    Two independent passes meet here.  Every channel symbol is computed in
    topological order from the actual local maps, one scalar per channel.
    Each client's decoder comes from its transfer matrix, whose columns are
    the assignment's coding vectors, propagated once from the same
    coefficients when the assignment was made; ``exact`` records that the
    decoded symbols equal w, ``n_symbols`` ints in [0, q).
    """
    if len(w) != net.n_symbols:
        raise InvalidParameters(f"data vector length {len(w)} != {net.n_symbols}")
    q = net.q
    if not all(int(x) == x and 0 <= x < q for x in w):
        raise InvalidParameters(f"data vector {w} has an entry outside F_{q}")
    w = [int(x) for x in w]
    coefficient = assignment.coefficients.get
    messages: list = []
    for ch, feeding in zip(net.channels, net.inputs):
        if ch.kind == "source":
            messages.append(sum(map(mul, net.source_matrix.column(ch.index), w)) % q)
        else:
            acc = 0
            for src in feeding:
                acc += coefficient((src, ch.index), 0) * messages[src]
            messages.append(acc % q)
    reports = {}
    for t in net.clients:
        decoder = build_decoder(net, assignment, t)
        received = [messages[c] for c in net.sink_channels[t]]
        decoded = decoder.mat_vec(received)
        reports[t] = ClientDecodeReport(received, decoded, decoded == w)
    return SimulationResult(messages, reports, net.edge_symbol_counts())
