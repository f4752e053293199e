"""Network instances, client subgraphs, the boundary operator and region tables.

An instance is a capacitated, cost-weighted DAG whose sinks are the
clients and whose remaining nodes all count as sources (relay nodes are
sources with an empty observation).  All capacities, costs and rates are
exact rationals in the entropy unit of the attached source model
("packets" for the linear model).

Every region inequality of a client compares a cut or a boundary of a
source subset S with g(S) = H(X_S | X_rest).  :class:`Region` holds these
as exact tables indexed by the subset mask over the client's sources.  A
table is filled by doubling: the masks with top bit v are the masks below
v, each shifted by what adding v changes.  That change is modular in the
lower bits, so every table costs a few list passes instead of a scan of
every edge per subset, and no order of the sources is assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (ClientNotSink, CycleDetected, DuplicateEdgeId, EmptyReachableSet,
                     InvalidInstance, NegativeCapacity, NonpositiveCost, UnknownEdgeRate)
from .lp import integral
from .submodular import modular_table


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    capacity: Fraction
    cost: Fraction


@dataclass(frozen=True)
class NetworkInstance:
    nodes: tuple               # all node ids, in input order
    edges: tuple               # Edge tuples, in input order
    sources: tuple             # every non-client node, in topological order
    clients: tuple             # sink nodes, in input order
    topo_order: tuple          # fixed topological order reused downstream

    def edge_map(self) -> dict:
        return {e.id: e for e in self.edges}

    def capacities(self) -> dict:
        return {e.id: e.capacity for e in self.edges}

    def costs(self) -> dict:
        return {e.id: e.cost for e in self.edges}


@dataclass(frozen=True)
class ClientSubproblem:
    client: str
    sources: tuple             # M_t: sources reaching the client, topological order
    edges: tuple               # E_t: edges with tail in M_t and head in M_t + {t}
    ground_entropy: Fraction   # H(X_{M_t})


def parse_rational(value) -> Fraction:
    """Accept ints and decimal/ratio strings; reject binary floats."""
    if isinstance(value, bool):
        raise InvalidInstance(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not value.is_integer():      # also rejects inf and nan
            raise InvalidInstance(
                f"non-integer float {value!r}: use a decimal string for exact rationals")
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstance(f"cannot parse rational from {value!r}") from exc
    raise InvalidInstance(f"cannot parse rational from {value!r}")


def _topological_order(nodes, edges) -> tuple:
    """Kahn's algorithm, input order as tie-break; raises with a witness cycle."""
    indeg = {v: 0 for v in nodes}
    succ = {v: [] for v in nodes}
    for e in edges:
        indeg[e.head] += 1
        succ[e.tail].append(e.head)
    order = []
    ready = [v for v in nodes if indeg[v] == 0]
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(order) < len(nodes):
        remaining = {v for v in nodes if indeg[v] > 0}
        pred = {v: [] for v in nodes}
        for e in edges:
            pred[e.head].append(e.tail)
        # every remaining node keeps a predecessor in the remaining set, so
        # walking predecessors must revisit a node and exposes a cycle
        seen = {}
        path = []
        v = next(iter(sorted(remaining, key=nodes.index)))
        while v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = next(u for u in pred[v] if u in remaining)
        loop = path[seen[v]:]
        cycle = [v] + loop[::-1]  # reverse the predecessor walk into edge order
        raise CycleDetected(cycle)
    return tuple(order)


def validate_instance(raw: dict) -> NetworkInstance:
    """Build a validated instance from a parsed description.

    The description uses the documented JSON shape: ``nodes``, ``edges``
    (each with id/tail/head/capacity/cost), ``clients``.  Every non-client
    node becomes a source.
    """
    try:
        node_list = [str(v) for v in raw["nodes"]]
        edge_list = raw["edges"]
        client_list = [str(v) for v in raw["clients"]]
    except (KeyError, TypeError) as exc:
        raise InvalidInstance(f"missing or malformed instance key: {exc}") from exc

    if len(set(node_list)) != len(node_list):
        raise InvalidInstance("duplicate node ids")
    node_set = set(node_list)

    edges = []
    seen_ids = set()
    for entry in edge_list:
        try:
            eid, tail, head = str(entry["id"]), str(entry["tail"]), str(entry["head"])
            capacity = parse_rational(entry["capacity"])
            cost = parse_rational(entry["cost"])
        except (KeyError, TypeError) as exc:
            raise InvalidInstance(f"malformed edge entry {entry!r}") from exc
        if eid in seen_ids:
            raise DuplicateEdgeId(f"edge id {eid!r} appears twice")
        seen_ids.add(eid)
        if tail not in node_set or head not in node_set:
            raise InvalidInstance(f"edge {eid} references unknown node")
        if tail == head:
            raise InvalidInstance(f"edge {eid} is a self-loop")
        if capacity < 0:
            raise NegativeCapacity(f"edge {eid} has capacity {capacity}")
        if cost <= 0:
            raise NonpositiveCost(f"edge {eid} has cost {cost}")
        edges.append(Edge(eid, tail, head, capacity, cost))

    clients = tuple(client_list)
    client_set = set(clients)
    if len(client_set) != len(clients):
        raise InvalidInstance("duplicate client ids")
    if not client_set <= node_set:
        raise InvalidInstance("client list references unknown node")

    out_deg = {v: 0 for v in node_list}
    in_deg = {v: 0 for v in node_list}
    for e in edges:
        out_deg[e.tail] += 1
        in_deg[e.head] += 1
    for t in clients:
        if out_deg[t] > 0:
            raise ClientNotSink(f"client {t} has outgoing edges")
        if in_deg[t] == 0:
            raise InvalidInstance(f"client {t} has no incoming edges")

    topo = _topological_order(node_list, edges)
    sources = tuple(v for v in topo if v not in client_set)
    return NetworkInstance(tuple(node_list), tuple(edges), sources, clients, topo)


def reachable_sources(instance: NetworkInstance, t: str) -> tuple:
    """M_t: all sources with a directed path to t, in topological order."""
    pred = {v: [] for v in instance.nodes}
    for e in instance.edges:
        pred[e.head].append(e.tail)
    seen = {t}
    frontier = [t]
    while frontier:
        v = frontier.pop()
        for u in pred[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    client_set = set(instance.clients)
    return tuple(v for v in instance.topo_order if v in seen and v not in client_set)


def client_subproblem(instance: NetworkInstance, oracle, t: str) -> ClientSubproblem:
    """Restrict the instance to the sources and edges that can serve client t."""
    if t not in instance.clients:
        raise InvalidInstance(f"{t!r} is not a client of this instance")
    m_t = reachable_sources(instance, t)
    if not m_t:
        raise EmptyReachableSet(f"client {t} has no reachable sources")
    keep = set(m_t) | {t}
    e_t = tuple(e for e in instance.edges if e.tail in set(m_t) and e.head in keep)
    return ClientSubproblem(t, m_t, e_t, oracle.entropy(m_t))


def boundary(rates: dict, nodes, edges) -> Fraction:
    """Net rate leaving the node set: sum over edges out of S minus edges into S."""
    s = set(nodes)
    total = Fraction(0)
    for e in edges:
        out_of_s = e.tail in s and e.head not in s
        into_s = e.head in s and e.tail not in s
        if not (out_of_s or into_s):
            continue
        if e.id not in rates:
            raise UnknownEdgeRate(f"no rate for edge {e.id}")
        total += rates[e.id] if out_of_s else -rates[e.id]
    return total


def boundary_vector(rates: dict, sub: ClientSubproblem) -> dict:
    """Per-source singleton boundaries; their sums give every subset boundary."""
    return {m: boundary(rates, (m,), sub.edges) for m in sub.sources}


def cut_capacity(capacities: dict, nodes, edges) -> Fraction:
    """Total capacity of edges leaving the node set (within the given edges)."""
    s = set(nodes)
    return sum((capacities[e.id] for e in edges if e.tail in s and e.head not in s),
               Fraction(0))


class Region:
    """Mask-indexed tables of one client's region inequalities.

    Bit i of a mask is ``sub.sources[i]``, in any order of the sources.
    Holds ``g``, the table of g(S) = H(G) - H(G \\ S) over
    G = ``sub.sources``, read from ``oracle.table`` (one rank sweep for a
    linear model), which also memoizes every entropy of G's subsets.  The
    cut and boundary tables depend on the capacities or rates and are
    filled on request, by doubling over the sources.  Tables cover all 2^m
    masks, so they are for the brute-force paths (m <= BRUTE_FORCE_LIMIT).
    Entries are exact: ints where the value is integral, Fractions elsewhere.
    """

    def __init__(self, sub: ClientSubproblem, oracle):
        self.sub = sub
        index = {v: i for i, v in enumerate(sub.sources)}
        self._out = [[] for _ in sub.sources]   # per source: (head index, edge position)
        self._in = [[] for _ in sub.sources]    # per source: (tail index, edge position)
        for j, e in enumerate(sub.edges):
            head = index.get(e.head)            # None for the client itself
            self._out[index[e.tail]].append((head, j))
            if head is not None:
                self._in[head].append((index[e.tail], j))
        h = [integral(x) for x in oracle.table(sub.sources)]
        self.full = len(h) - 1
        self.g = [h[-1] - h[self.full ^ mask] for mask in range(len(h))]

    def cut(self, capacities: dict) -> list:
        """c(out(S)) for every mask.

        Adding v above every bit of S adds v's out-capacity and drops the
        capacity between v and S, in either direction: the edges from v
        into S no longer leave, and those from S into v now stay inside.
        """
        caps = [integral(capacities[e.id]) for e in self.sub.edges]
        table = [0]
        for v, (out, into) in enumerate(zip(self._out, self._in)):
            between = [0] * v           # capacity between v and each lower source
            for u, j in out + into:
                if u is not None and u < v:
                    between[u] += caps[j]
            leaving = sum(caps[j] for _, j in out)
            table += [x + leaving - y for x, y in zip(table, modular_table(between))]
        return table

    def boundary(self, rates: dict) -> list:
        """boundary(R, S) for every mask, summed from the singleton boundaries."""
        rate = [rates[e.id] for e in self.sub.edges]
        return modular_table(integral(sum(rate[j] for _, j in out) - sum(rate[j] for _, j in into))
                             for out, into in zip(self._out, self._in))

    def row(self, mask: int) -> list:
        """LP coefficients of boundary(R, S) over the edge order of the subproblem.

        The sum of the incidence rows (+1 out of v, -1 into v) of the sources
        v in S; the two entries of an edge inside S cancel.
        """
        row = [0] * len(self.sub.edges)
        for v, (out, into) in enumerate(zip(self._out, self._in)):
            if mask >> v & 1:
                for _, j in out:
                    row[j] += 1
                for _, j in into:
                    row[j] -= 1
        return row


@dataclass(frozen=True)
class ClientReconstructability:
    client: str
    sources: tuple
    entropy: Fraction
    complete: bool


@dataclass(frozen=True)
class ReconstructabilityReport:
    total_entropy: Fraction
    clients: tuple

    @property
    def ok(self) -> bool:
        return all(c.complete for c in self.clients)


def check_reconstructability(instance: NetworkInstance, oracle) -> ReconstructabilityReport:
    """Check that every client can in principle see the whole process.

    A client passes when the joint entropy of its reachable sources equals
    the joint entropy of all sources.
    """
    total = oracle.entropy(instance.sources)
    rows = []
    for t in instance.clients:
        m_t = reachable_sources(instance, t)
        h = oracle.entropy(m_t)
        rows.append(ClientReconstructability(t, m_t, h, h == total))
    return ReconstructabilityReport(total, tuple(rows))
