"""Seeded instance documents for the benchmark.

``instance_doc`` follows the semantics of the test suite's
``random_instance_doc``: a source chain backbone, extra forward edges with
probability 1/4, an edge from the last source into every client plus
extra source-to-client edges with probability 0.35, and 0/1 selector
observations of a random packet count.  With the default options it draws
the same random numbers in the same order, so it yields the same document.
It is kept here rather than imported from the tests, so that an edit to
the tests cannot change the benchmark's inputs.

Options the workloads need on top of that: ``half_integral`` draws each
capacity from the half-integer grid {0, 1/2, ..., max_capacity} (so about
half of them are half-integral), ``q`` sets the field size of the linear
source model, and ``n_clients`` / ``n_sources`` fix the sizes.
"""

from __future__ import annotations

import hashlib
import json
import random


def instance_doc(rng: random.Random, n_sources: int, n_clients: int,
                 max_capacity: int = 5, max_cost: int = 3,
                 half_integral: bool = False, q: int = 5) -> dict:
    m, k = n_sources, n_clients
    n_packets = rng.randint(3, 5)
    sources = [f"s{i}" for i in range(1, m + 1)]
    clients = [f"t{j}" for j in range(1, k + 1)]
    edges = []

    def add(u, v):
        if half_integral:
            halves = rng.randint(0, 2 * max_capacity)
            capacity = str(halves // 2) if halves % 2 == 0 else f"{halves}/2"
        else:
            capacity = str(rng.randint(0, max_capacity))
        edges.append({"id": f"e{len(edges) + 1}", "tail": u, "head": v,
                      "capacity": capacity, "cost": str(rng.randint(1, max_cost))})

    for i in range(m - 1):
        add(sources[i], sources[i + 1])
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.25:
                add(sources[i], sources[j])
    for t in clients:
        add(sources[-1], t)
        for i in range(m - 1):
            if rng.random() < 0.35:
                add(sources[i], t)

    matrices = {}
    for s in sources:
        rows = [[1 if j == i else 0 for j in range(n_packets)]
                for i in range(n_packets) if rng.random() < 0.5]
        if rows:
            matrices[s] = rows
    return {"nodes": sources + clients, "edges": edges, "clients": clients,
            "source_model": {"kind": "linear", "q": q, "N": n_packets,
                             "matrices": matrices}}


def digest(docs) -> str:
    """SHA-256 of the canonical JSON of a document or a list of documents."""
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
