"""The benchmark's workloads: which `polycontact represent` calls one pass makes.

Each workload is a fixed list of operations, rebuilt from the seed.  An
operation is one `represent ... -o FILE` call followed by one
`verify FILE --json` call; its input file, if any, is generated from the
seed.  `expect_contacts` is the number of contacts a correct scene has,
|E| for a graph and |V| for a hypergraph, known from the input alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from inputs import (complete_bipartite_edges, edge_list_text,
                    k4_gadget_chain_edges, prism_embedding_text,
                    random_cubic_edges)

WORKLOADS = ("lift", "certify", "float")
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Op:
    name: str
    args: tuple  # `represent` arguments without --input and -o
    expect_contacts: int
    input_name: Optional[str] = None  # file name of the generated input
    input_text: Optional[str] = None


@dataclass(frozen=True)
class KnownDefect:
    """An operation whose README-contract breach ROADMAP already records.

    It runs once per benchmark run, outside the timed passes, and its
    outcome is reported by name; it stays out of `attempted`/`failed`.
    """

    op: Op
    expected: str
    reference: str


def _edge_op(name, cls, n, edges, rng, title):
    return Op(name, ("--class", cls), len(edges), f"{name}.edges",
              edge_list_text(n, edges, rng, title))


def lift(rng: random.Random, tiny: bool) -> list:
    """Line-arrangement lifts: complete graphs and random cubic graphs."""
    ops = []
    for n in (4, 5) if tiny else (10, 12):
        ops.append(Op(f"complete-{n}", ("--class", "complete", "--n", str(n)),
                      n * (n - 1) // 2))
    for n, count in ((6, 1),) if tiny else ((12, 3), (14, 2)):
        for r in range(count):
            edges = random_cubic_edges(n, rng)
            ops.append(_edge_op(f"mindeg3-{n}-{r}", "mindeg3", n, edges, rng,
                                "random cubic graph"))
    return ops


def certify(rng: random.Random, tiny: bool) -> list:
    """Exact small-rational scenes where `verify_scene` does the work."""
    n2ec, chain, ab, prism = (6, 2, 3, 4) if tiny else (32, 5, 8, 10)
    ops = []
    for r in range(2):
        edges = random_cubic_edges(n2ec, rng, two_edge_connected=True)
        ops.append(_edge_op(f"cubic-2ec-{n2ec}-{r}", "cubic-2ec", n2ec, edges,
                            rng, "random 2-edge-connected cubic graph"))
    n, edges = k4_gadget_chain_edges(chain, rng)
    ops.append(_edge_op(f"cubic-chain-{chain}", "cubic", n, edges, rng,
                        f"chain of {chain} K4 gadgets"))
    n, edges = complete_bipartite_edges(ab, ab)
    ops.append(_edge_op(f"bipartite-grid-{ab}x{ab}", "bipartite-grid", n,
                        edges, rng, f"K{ab},{ab}"))
    ops.append(Op(f"oneplanar-prism-{prism}", ("--class", "oneplanar-cubic"),
                  3 * prism, f"prism-{prism}.json",
                  prism_embedding_text(prism, rng)))
    return ops


def float_(rng: random.Random, tiny: bool) -> list:
    """Epsilon-arithmetic scenes: toroidal bipartite, cycle squares, triple systems."""
    ab = 4 if tiny else 14
    n, edges = complete_bipartite_edges(ab, ab)
    ops = [_edge_op(f"bipartite-toroidal-{ab}x{ab}", "bipartite-toroidal", n,
                    edges, rng, f"K{ab},{ab}")]
    for m in (6, 7) if tiny else range(6, 12):
        ops.append(Op(f"cycle-square-{m}",
                      ("--class", "cycle-square", "--n", str(m)), 2 * m))
    ops.append(Op("k33", ("--class", "k33"), 9))
    ops.append(Op("fano", ("--class", "fano"), 7))
    ops.append(Op("s239", ("--class", "s239"), 9))
    return ops


KNOWN_DEFECTS = {
    "float": [KnownDefect(
        Op("cycle-square-14", ("--class", "cycle-square", "--n", "14"), 28),
        expected="exit 3 (README: cycle-square rejects n >= 14)",
        reference="ROADMAP item 2, invalid cycle-square scenes")],
}

_BUILDERS = {"lift": lift, "certify": certify, "float": float_}


def build(workload: str, seed: int, scale: str = "full") -> list:
    """The operations of one pass, with inputs generated from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, scale == "tiny")
