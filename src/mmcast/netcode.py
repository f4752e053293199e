"""Explicit network codes for the finite linear source model.

A feasible rate vector is turned into a unit-capacity symbol network: a
super node holding the whole data vector feeds each source a basis of its
observation space, and every graph edge becomes beta * R_e parallel
channels (beta clears rate denominators by coding over that many blocks).
Local mixing coefficients then define global coding vectors and the
per-client transfer matrices M(t) = A (I - Gamma)^-1 B(t).  No c x c matrix
is inverted: (I - Gamma) is unipotent in the topological channel order, so
A (I - Gamma)^-1 is read off the coding vectors by forward substitution, and
each client decodes through the inverse of one n x n block of M(t).
Coefficients are drawn uniformly from F_q with a seeded generator and the
resulting transfer ranks are verified, retrying on failure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import gf
from .entropy import LinearSource
from .errors import (FieldTooSmall, InfeasibleRates, InvalidParameters, NotLinearModel,
                     RankDeficient, ReconstructabilityViolated, ScaleOverflow,
                     UnknownEdgeRate, VerificationFailedAllAttempts)
from .feasibility import check_feasible_multi
from .gf import FieldMatrix
from .model import NetworkInstance

BETA_CAP = 2 ** 12
DEFAULT_MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class Channel:
    index: int
    kind: str                   # "source" | "edge"
    tail: str
    head: str
    edge_id: str | None
    label: str


@dataclass
class CodedNetwork:
    instance: NetworkInstance
    source_model: LinearSource
    q: int
    n_packets: int              # N, per coding block
    beta: int                   # block scale factor
    n_symbols: int              # beta * N, length of the expanded data vector
    super_node: str
    channels: tuple
    inputs: tuple               # per channel: indices of channels feeding it
    source_matrix: FieldMatrix  # n_symbols x channel count; edge columns are zero
    sink_channels: dict         # client -> tuple of incoming channel indices
    rates: dict                 # the rational per-edge rates the network realizes

    @property
    def clients(self):
        return self.instance.clients

    def edge_symbol_counts(self) -> dict:
        counts = {e.id: 0 for e in self.instance.edges}
        for ch in self.channels:
            if ch.kind == "edge":
                counts[ch.edge_id] += 1
        return counts


@dataclass
class CodeAssignment:
    coefficients: dict          # (feeding index, fed index) -> int in [0, q)
    global_vectors: tuple       # per channel: tuple of n_symbols field elements
    attempts: int
    seed: int | None


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
        from .entropy import EntropyOracle
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
    joint = source_model.stacked(instance.sources)
    if gf.rank(joint) < n_packets:
        raise InfeasibleRates(
            f"joint observations have rank {gf.rank(joint)} < {n_packets}: "
            "the data vector is not determined by the sources")
    _verify_rates_serve_all_clients(instance, oracle, full_rates)

    beta = 1
    for r in full_rates.values():
        beta = beta * r.denominator // math.gcd(beta, r.denominator)
    if beta > BETA_CAP:
        raise ScaleOverflow(f"block scale {beta} exceeds cap {BETA_CAP}")
    n_symbols = beta * n_packets
    q = source_model.q

    super_node = "S"
    while super_node in instance.nodes:
        super_node += "*"

    topo_pos = {v: i for i, v in enumerate(instance.topo_order)}
    channels: list = []
    columns: list = []          # injected vector per channel

    for m in instance.sources:
        a_m = source_model.matrix_for(m)
        basis = gf.independent_rows(a_m)
        for b in range(beta):
            for r in basis:
                vec = [0] * n_symbols
                row = a_m.row(r)
                vec[b * n_packets:(b + 1) * n_packets] = list(row)
                channels.append(Channel(len(channels), "source", super_node, m, None,
                                        f"{super_node}->{m}#{r}b{b}"))
                columns.append(vec)

    edge_order = {e.id: i for i, e in enumerate(instance.edges)}
    for e in sorted(instance.edges, key=lambda e: (topo_pos[e.tail], edge_order[e.id])):
        count = full_rates[e.id] * beta
        for i in range(int(count)):
            channels.append(Channel(len(channels), "edge", e.tail, e.head, e.id,
                                    f"{e.id}#{i}"))
            columns.append([0] * n_symbols)

    by_head: dict = {}
    for ch in channels:
        by_head.setdefault(ch.head, []).append(ch.index)
    inputs = tuple(
        tuple(by_head.get(ch.tail, ())) if ch.kind == "edge" else ()
        for ch in channels)

    flat = [columns[c][i] for i in range(n_symbols) for c in range(len(channels))]
    source_matrix = FieldMatrix(n_symbols, len(channels), flat, q)
    sinks = {t: tuple(by_head.get(t, ())) for t in instance.clients}
    return CodedNetwork(instance, source_model, q, n_packets, beta, n_symbols,
                        super_node, tuple(channels), inputs, source_matrix,
                        sinks, full_rates)


def propagate_global_vectors(net: CodedNetwork, assignment: CodeAssignment) -> list:
    """Recompute every channel's coding vector in topological channel order."""
    return _propagate(net, assignment.coefficients)


def _propagate(net: CodedNetwork, coefficients: dict) -> list:
    q = net.q
    a = net.source_matrix
    vectors: list = []
    for ch in net.channels:
        if ch.kind == "source":
            vectors.append(tuple(a[i, ch.index] for i in range(net.n_symbols)))
            continue
        acc = [0] * net.n_symbols
        for src in net.inputs[ch.index]:
            coeff = coefficients.get((src, ch.index), 0)
            if coeff:
                vec = vectors[src]
                acc = [(x + coeff * y) % q for x, y in zip(acc, vec)]
        vectors.append(tuple(acc))
    return vectors


def assignment_from_coefficients(net: CodedNetwork, coefficients: dict) -> CodeAssignment:
    """Wrap explicit local coefficients (e.g. hand-built routing codes)."""
    allowed = {(src, ch.index) for ch in net.channels for src in net.inputs[ch.index]}
    bad = set(coefficients) - allowed
    if bad:
        raise InvalidParameters(f"coefficients on non-adjacent channel pairs: {sorted(bad)}")
    coeffs = {k: int(v) % net.q for k, v in coefficients.items()}
    return CodeAssignment(coeffs, tuple(_propagate(net, coeffs)), 1, None)


def assign_coefficients(net: CodedNetwork, seed: int = 0,
                        max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> CodeAssignment:
    """Draw local coefficients uniformly from F_q until all clients decode.

    Attempt i uses the deterministic stream seeded by (seed, i); the first
    passing assignment is returned with the attempt count.  Requires
    q > number of clients.
    """
    k = len(net.clients)
    if net.q <= k:
        raise FieldTooSmall(f"field size {net.q} must exceed the client count {k}")
    best_ranks = {t: 0 for t in net.clients}
    for attempt in range(max_attempts):
        rng = random.Random(seed * 1_000_003 + attempt)
        coeffs = {}
        for ch in net.channels:
            for src in net.inputs[ch.index]:
                coeffs[(src, ch.index)] = rng.randrange(net.q)
        vectors = _propagate(net, coeffs)
        ranks = {}
        for t in net.clients:
            received = [vectors[c] for c in net.sink_channels[t]]
            ranks[t] = gf.rank(FieldMatrix.from_rows(received, net.q, cols=net.n_symbols))
            best_ranks[t] = max(best_ranks[t], ranks[t])
        if all(r == net.n_symbols for r in ranks.values()):
            return CodeAssignment(coeffs, tuple(vectors), attempt + 1, seed)
    raise VerificationFailedAllAttempts(
        f"no full-rank assignment in {max_attempts} attempts "
        f"(best ranks {best_ranks}, need {net.n_symbols})",
        max_attempts, best_ranks)


def transfer_matrix(net: CodedNetwork, assignment: CodeAssignment, t: str) -> FieldMatrix:
    """M(t) = A (I - Gamma)^-1 B(t); row vector W . M(t) is what t receives.

    X = A (I - Gamma)^-1 is the solution of X = A + X Gamma.  Channel
    adjacency follows the DAG, so Gamma is strictly upper triangular in the
    topological channel order and forward substitution solves it: column j
    of X is channel j's global coding vector, recomputed here from the local
    coefficients.  B(t) keeps the columns of the channels entering t.
    """
    vectors = _propagate(net, assignment.coefficients)
    sinks = net.sink_channels[t]
    return FieldMatrix(net.n_symbols, len(sinks),
                       [vectors[c][i] for i in range(net.n_symbols) for c in sinks], net.q)


def build_decoder(net: CodedNetwork, assignment: CodeAssignment, t: str) -> FieldMatrix:
    """Decoder D with D . received = W for every data vector W.

    The leftmost linearly independent columns of M(t) form an invertible
    n x n block B; D holds (B^-1)^T in those columns and zero in the rest,
    which is the solution of M(t) D^T = I with every free variable zero.
    Raises RankDeficient when M(t) has rank below the expanded data
    dimension n.
    """
    m = transfer_matrix(net, assignment, t)
    n = net.n_symbols
    basis = gf.independent_rows(m.transpose())
    if len(basis) < n:
        raise RankDeficient(f"client {t} transfer matrix has rank {len(basis)} < {n}")
    block_inv = gf.inverse(m.select_columns(basis))
    entries = [0] * (n * m.cols)
    for k, c in enumerate(basis):
        for i in range(n):
            entries[i * m.cols + c] = block_inv[k, i]
    return FieldMatrix(n, m.cols, entries, net.q)


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
    the coding vectors propagated separately from the same coefficients;
    ``exact`` records that the decoded symbols equal w.
    """
    w = [int(x) % net.q for x in w]
    if len(w) != net.n_symbols:
        raise InfeasibleRates(f"data vector length {len(w)} != {net.n_symbols}")
    q = net.q
    a = net.source_matrix
    messages: list = []
    for ch in net.channels:
        if ch.kind == "source":
            messages.append(sum(a[i, ch.index] * w[i] for i in range(net.n_symbols)) % q)
        else:
            acc = 0
            for src in net.inputs[ch.index]:
                coeff = assignment.coefficients.get((src, ch.index), 0)
                acc += coeff * messages[src]
            messages.append(acc % q)
    reports = {}
    for t in net.clients:
        decoder = build_decoder(net, assignment, t)
        received = [messages[c] for c in net.sink_channels[t]]
        decoded = decoder.mat_vec(received)
        reports[t] = ClientDecodeReport(received, decoded, decoded == w)
    return SimulationResult(messages, reports, net.edge_symbol_counts())
