"""Network instances, client subgraphs, the boundary operator and region tables.

An instance is a capacitated, cost-weighted DAG whose sinks are the
clients and whose remaining nodes all count as sources (relay nodes are
sources with an empty observation).  All capacities, costs and rates are
exact rationals in the entropy unit of the attached source model
("packets" for the linear model).

Every region inequality of a client compares a cut or a boundary of a
source subset S with g(S) = H(X_S | X_rest).  :class:`Region` holds these
as exact tables indexed by the subset mask over the client's sources, and
is the only code that builds a mask's row, rules which rows x >= 0 implies
and finds tight sets, from one incidence list and per-edge lists in the
order ``sub.edges``.  A table is filled by doubling: the masks with
top bit v are the masks below v, each shifted by what adding v changes,
which is modular in the lower bits, and where that change is zero the
half is a copy (``table += table``, done in C); a table costs a few list
passes, not an edge scan per subset, and assumes no source order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter

from .errors import (ClientNotSink, CycleDetected, DuplicateEdgeId, EmptyReachableSet,
                     InvalidInstance, NegativeCapacity, NonpositiveCost,
                     ReconstructabilityViolated, UnknownEdgeRate)
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
    topo_order: tuple          # Kahn's FIFO order, input order as tie-break

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
    """Kahn's order, FIFO with input order as tie-break, from ``graphlib``.

    Nodes, then edges, are added in input order; a cycle's witness is a closed walk along the edges.
    """
    sorter = TopologicalSorter()
    for v in nodes:
        sorter.add(v)
    for e in edges:
        sorter.add(e.head, e.tail)
    try:
        return tuple(sorter.static_order())
    except CycleError as exc:
        raise CycleDetected(exc.args[1]) from None


def validate_instance(raw: dict) -> NetworkInstance:
    """Build a validated instance from a parsed description.

    The description uses the documented JSON shape: ``nodes``, ``edges``
    (each with id/tail/head/capacity/cost), ``clients``.  Every non-client
    node becomes a source.
    """
    try:
        node_list, edge_list, client_list = raw["nodes"], list(raw["edges"]), raw["clients"]
    except (KeyError, TypeError) as exc:
        raise InvalidInstance(f"missing or malformed instance key: {exc}") from exc
    if not (isinstance(node_list, list) and isinstance(client_list, list)):
        raise InvalidInstance("nodes and clients must be JSON lists")
    node_list, client_list = [str(v) for v in node_list], [str(v) for v in client_list]

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

    tails, heads = {e.tail for e in edges}, {e.head for e in edges}
    for t in clients:
        if t in tails:
            raise ClientNotSink(f"client {t} has outgoing edges")
        if t not in heads:
            raise InvalidInstance(f"client {t} has no incoming edges")

    topo = _topological_order(node_list, edges)
    sources = tuple(v for v in topo if v not in client_set)
    return NetworkInstance(tuple(node_list), tuple(edges), sources, clients, topo)


def _reachable(instance: NetworkInstance, clients) -> list:
    """M_t for each client: one reverse-topological sweep ORs client i's bit from head to tail."""
    position = {v: i for i, v in enumerate(instance.topo_order)}
    reach = dict.fromkeys(instance.nodes, 0)
    for i, t in enumerate(clients):
        reach[t] |= 1 << i
    for e in sorted(instance.edges, key=lambda e: position[e.tail], reverse=True):
        reach[e.tail] |= reach[e.head]
    return [tuple(v for v in instance.sources if reach[v] >> i & 1) for i in range(len(clients))]


def reachable_sources(instance: NetworkInstance, t: str) -> tuple:
    """M_t: all sources with a directed path to client t, in topological order."""
    if t not in instance.clients:
        raise InvalidInstance(f"{t!r} is not a client of this instance")
    return _reachable(instance, [t])[0]


def _restrict(instance: NetworkInstance, t: str, m_t: tuple) -> ClientSubproblem:
    """Client t's subproblem on its reachable sources m_t."""
    if not m_t:
        raise EmptyReachableSet(f"client {t} has no reachable sources")
    keep = set(m_t) | {t}
    # clients are sinks, so a tail in keep is a source of M_t
    e_t = tuple(e for e in instance.edges if e.tail in keep and e.head in keep)
    return ClientSubproblem(t, m_t, e_t)


def client_subproblem(instance: NetworkInstance, oracle, t: str) -> ClientSubproblem:
    """Restrict the instance to the sources and edges that can serve client t.

    ``oracle`` is not read; the parameter stays so that existing callers keep working.
    """
    return _restrict(instance, t, reachable_sources(instance, t))


def client_subproblems(instance: NetworkInstance, oracle) -> dict:
    """``{client: subproblem}`` in client order; ReconstructabilityViolated names clients that fail.

    Each subproblem is restricted to the M_t that the reconstructability check found.
    """
    recon = check_reconstructability(instance, oracle)
    if not recon.ok:
        failed = [c.client for c in recon.clients if not c.complete]
        raise ReconstructabilityViolated(f"clients {failed} cannot see the full process", recon)
    return {c.client: _restrict(instance, c.client, c.sources) for c in recon.clients}


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

    Bit i of a mask is ``sub.sources[i]``, in any order of the sources.  Holds
    ``g``, the table of g(S) = H(G) - H(G \\ S) over G = ``sub.sources``: the
    conditional entropies come from the oracle's table of the source tuple
    (``oracle.conditional_table``), a read-only tuple that every Region with
    the same sources on that oracle shares, so one rank sweep serves them all
    for a linear model.  Rows, cuts and boundaries read one incidence list:
    ``(tail, head)`` source positions per edge, in ``sub.edges`` order (a
    row's order), the client at m.  The cut and boundary tables depend on the
    capacities or rates, lists in that order, and are filled on request, by
    doubling over the sources.  Tables cover all 2^m masks, so they are for
    the brute-force paths (m <= BRUTE_FORCE_LIMIT).  Entries are exact: ints
    where the value is integral, Fractions elsewhere.
    """

    def __init__(self, sub: ClientSubproblem, oracle):
        self.sub = sub
        index = {v: i for i, v in enumerate(sub.sources)}
        index[sub.client] = len(sub.sources)    # past every mask bit: the client is no source
        self._ends = [(index[e.tail], index[e.head]) for e in sub.edges]
        self.g = oracle.conditional_table(sub.sources)
        self.full = len(self.g) - 1
        self._rates = None          # the rates of the last boundary table, kept in _boundary

    def cut(self, capacities: list) -> list:
        """c(out(S)) for every mask, from the capacities in ``sub.edges`` order.

        Adding v above every bit of S adds v's out-capacity and drops the
        capacity between v and S, in either direction: the edges from v
        into S no longer leave, and those from S into v now stay inside.
        That capacity, less out(v), is a modular table over the lower
        sources that doubles by copy where v has no edge to a source, and
        one subtraction pass takes it from the lower half.
        """
        leaving = [0] * len(self.sub.sources)
        # capacity between v and each lower source; row m, the client's, is unread
        between = [[0] * v for v in range(len(leaving) + 1)]
        for (tail, head), c in zip(self._ends, capacities):
            c = integral(c)
            leaving[tail] += c
            between[max(tail, head)][min(tail, head)] += c
        table = [0]
        for out, lower in zip(leaving, between):
            # the new half is x - (y - out): y - out for every lower mask is one modular table
            table += list(map(operator.sub, table, modular_table(lower, -out)))
        return table

    def boundary(self, rates: list) -> list:
        """boundary(R, S) for every mask from R in ``sub.edges`` order; the last table is kept."""
        if rates != self._rates:
            net = [0] * (len(self.sub.sources) + 1)    # the last, the client's, is unread
            for (tail, head), r in zip(self._ends, rates):
                r = integral(r)
                net[tail] += r
                net[head] -= r
            self._rates, self._boundary = [*rates], modular_table(integral(b) for b in net[:-1])
        return self._boundary

    def row(self, mask: int, columns) -> dict:
        """boundary(R, S) as ``{columns[j]: +1 or -1}``, edge j in ``sub.edges`` order.

        +1 where the tail is in S and the head is not, -1 where the head is in S
        and the tail is not; the LP row of S on the client's columns, and the
        only code that builds one.
        """
        row = {}
        for k, (tail, head) in zip(columns, self._ends):
            d = (mask >> tail & 1) - (mask >> head & 1)
            if d:
                row[k] = d
        return row

    def implied(self, mask: int, row: dict) -> bool:
        """Whether R >= 0 alone implies S's ``row`` (:meth:`row`): g(S) <= 0, no edge enters S."""
        return self.g[mask] <= 0 and -1 not in row.values()

    def tight(self, rates: list) -> list:
        """The members of every nonempty S whose row is tight at ``rates``, in mask order."""
        half, sources = len(self.sub.sources) // 2, self.sub.sources
        low, high = [()], [()]      # the members of each mask of the low and the high half
        for table, part in ((low, sources[:half]), (high, sources[half:])):
            for v in part:
                table += [s + (v,) for s in table]
        b, g = self.boundary(rates), self.g
        return [low[mask & (1 << half) - 1] + high[mask >> half]
                for mask in range(1, self.full + 1) if b[mask] == g[mask]]


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
    for t, m_t in zip(instance.clients, _reachable(instance, instance.clients)):
        h = oracle.entropy(m_t)
        rows.append(ClientReconstructability(t, m_t, h, h == total))
    return ReconstructabilityReport(total, tuple(rows))
