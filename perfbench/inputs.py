"""Seeded input generators for the benchmark, stdlib `random` only.

Each generator takes a `random.Random` and returns plain data; the
writers turn it into the text formats a CLI user hands to
`polycontact represent --input`: edge lists and 1-plane embedding JSON.
Vertex labels and line order are permuted by the seed, so one seed always
gives byte-identical files and two seeds give different labellings of
graphs of the same size.
"""

from __future__ import annotations

import json
import math
import random


def _labels(n: int, rng: random.Random, prefix: str = "v") -> list:
    """Label i of n vertices, through a seeded permutation."""
    ids = list(range(n))
    rng.shuffle(ids)
    return [f"{prefix}{i}" for i in ids]


def random_cubic_edges(n: int, rng: random.Random,
                       two_edge_connected: bool = False) -> list:
    """Simple 3-regular graph on 0..n-1 by stub pairing with rejection.

    With `two_edge_connected`, graphs that are disconnected or have a
    bridge (checked with polycontact's public `find_bridges`) are also
    rejected.
    """
    if n < 4 or n % 2:
        raise ValueError("a cubic graph needs an even n >= 4")
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        for u, v in zip(stubs[::2], stubs[1::2]):
            e = (min(u, v), max(u, v))
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            if not two_edge_connected or _is_2ec(n, edges):
                return sorted(edges)


def _is_2ec(n: int, edges) -> bool:
    from polycontact import Graph, find_bridges

    g = Graph.from_edges([(str(u), str(v)) for u, v in edges],
                         vertices=[str(v) for v in range(n)])
    return g.is_connected() and not find_bridges(g)


def k4_gadget_chain_edges(k: int, rng: random.Random):
    """Cubic chain of k >= 2 K4 gadgets joined by k-1 bridges.

    A gadget is K4 with one edge (chain ends) or two disjoint edges
    (inner links) subdivided; the subdivision vertices carry the bridges.
    The seed picks which perfect matching of each K4 is subdivided.
    Returns (n, edges) with n = 6k - 2.
    """
    if k < 2:
        raise ValueError("a gadget chain needs k >= 2")
    edges = []
    n = 0
    ends = []
    for i in range(k):
        a, b, c, d = range(n, n + 4)
        n += 4
        k4 = {(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)}
        matching = rng.choice([((a, b), (c, d)), ((a, c), (b, d)),
                               ((a, d), (b, c))])
        slots = []
        for x, y in matching[:1 if i in (0, k - 1) else 2]:
            k4.remove((x, y))
            k4 |= {(x, n), (y, n)}
            slots.append(n)
            n += 1
        edges += sorted(k4)
        ends.append(slots)
    for i in range(k - 1):
        edges.append((ends[i][-1], ends[i + 1][0]))
    return n, edges


def complete_bipartite_edges(a: int, b: int):
    """K_{a,b} on 0..a+b-1, part A first; returns (n, edges)."""
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def edge_list_text(n: int, edges, rng: random.Random, title: str) -> str:
    """Edge-list file text with permuted labels, line order and endpoint order."""
    labels = _labels(n, rng)
    lines = []
    for u, v in edges:
        pair = [labels[u], labels[v]]
        rng.shuffle(pair)
        lines.append(" ".join(pair))
    rng.shuffle(lines)
    return f"# {title}: {n} vertices, {len(lines)} edges\n" + "\n".join(lines) + "\n"


def prism_embedding_text(k: int, rng: random.Random) -> str:
    """Planar embedding JSON of the prism C_k x K2 (2k vertices, 3k edges).

    The outer k-cycle sits on a circle of radius 2 and the inner one on a
    circle of radius 1; each rotation lists incident edges in
    counterclockwise angular order, starting at a seeded position, and
    `outer_face` is the outer cycle.
    """
    if k < 3:
        raise ValueError("a prism needs k >= 3")
    n = 2 * k
    pos = {}
    for i in range(k):
        t = 2 * math.pi * i / k
        pos[i] = (2 * math.cos(t), 2 * math.sin(t))
        pos[k + i] = (math.cos(t), math.sin(t))
    pairs = ([(i, (i + 1) % k) for i in range(k)]
             + [(k + i, k + (i + 1) % k) for i in range(k)]
             + [(i, k + i) for i in range(k)])
    labels = _labels(n, rng)
    eids = _labels(len(pairs), rng, prefix="e")
    incident = {v: [] for v in range(n)}
    for idx, (u, v) in enumerate(pairs):
        incident[u].append((v, eids[idx]))
        incident[v].append((u, eids[idx]))

    vertices = []
    for v in range(n):
        x, y = pos[v]
        ring = sorted(incident[v],
                      key=lambda we: math.atan2(pos[we[0]][1] - y, pos[we[0]][0] - x))
        start = rng.randrange(len(ring))
        ring = ring[start:] + ring[:start]
        vertices.append({"id": labels[v], "rotation": [e for _, e in ring]})
    edges = [{"id": eids[idx], "endpoints": [labels[u], labels[v]]}
             for idx, (u, v) in enumerate(pairs)]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    doc = {"vertices": vertices, "edges": edges, "crossings": [],
           "outer_face": sorted(eids[:k])}
    return json.dumps(doc, indent=1) + "\n"
