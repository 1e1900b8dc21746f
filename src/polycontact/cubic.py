"""Cubic graphs as touching triangles on small grids.

Bridgeless case, connected or not: split the edges into a perfect matching
and disjoint cycles, draw the cycle vertices around the boundary of a
3 x n/2 rectangle with a hub inside, give every matching edge one z-slot
above the hub (both apexes coincide there, realizing the matching contact)
and make each cycle's last-placed vertex the chord-based horizontal
triangle at its own slot, which is the topmost of its cycle.  If a chord
drawn across the rectangle strictly encloses the hub, that chord (and its
partner apex) moves to z = -1 and everything above compacts down one step.

Bridged case: every 2-edge-connected component becomes a floorplan (wheel,
plain cycle, or a single triangle for one-vertex components) after cutting
bridge-incident vertices and restoring their edge as a "foot"; feet are
forced into the perfect matching, so each cut vertex returns as a vertical
triangle between its foot's two apex slots and the bridge vertex on the
floor.  The floorplans join into one plane graph through the bridge
vertices and are drawn by the Schnyder grid algorithm.  A bridged graph with
several components has each built on its own and set side by side along x.

Maximum degree 3: a graph that is not cubic gets one dummy vertex per
missing degree, made cubic by one fixed gadget (`_pad_stubs`); the padded
graph takes whichever of the two paths above applies, on its own grid, and
its scene is retracted to the graph (`scene.retract`).

Perfect matchings come from a stdlib Edmonds blossom search
(`_max_matching`); in the bridged case, when a matching gives no workable
plan or no scene drawn from it certifies, other matchings are tried.
Every scene is returned through `verify.certify`, the correctness gate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional

from .core import Graph, Record, components, edge_key, find_bridges
from .geom import Polygon3
from .planar import PlaneGraph
from .scene import ConstructionError, Scene, dummy_labels, graph_scene, retract
from .schnyder import schnyder_draw
from .verify import certify, verify_scene  # noqa: F401  perfbench/spans.py wraps verify_scene


# ---------------------------------------------------------------------------
# Bridge-block trees
# ---------------------------------------------------------------------------


class BridgeBlockTree(Record):
    _fields = ("components", "bridges")

    def __init__(self, components: list, bridges: set):
        self.components = components  # list of frozensets of vertices
        self.bridges = bridges  # edge keys


def bridge_block_tree(g: Graph) -> BridgeBlockTree:
    """2-edge-connected components joined by the bridges of g."""
    bridges = find_bridges(g)
    comps = components(g.vertices, lambda v: [
        w for w in g.neighbors(v) if edge_key(v, w) not in bridges])
    return BridgeBlockTree(components=comps, bridges=bridges)


# ---------------------------------------------------------------------------
# Petersen decomposition (perfect matching + disjoint cycles)
# ---------------------------------------------------------------------------


class PetersenDecomposition(Record):
    _fields = ("matching", "cycles")

    def __init__(self, matching: set, cycles: list):
        self.matching = matching  # edge keys
        self.cycles = cycles  # each a list of vertex labels in cycle order


def _cycles_after_matching(vertices, edges, matching):
    left = [e for e in edges if e not in matching]
    adj = {}
    for e in left:
        u, v = tuple(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for v in vertices:
        if len(adj.get(v, [])) != 2:
            raise ConstructionError("matching complement is not 2-regular")
    seen = set()
    cycles = []
    for v in sorted(vertices):
        if v in seen:
            continue
        cyc = [v]
        seen.add(v)
        prev = None
        cur = v
        while True:
            nxts = [w for w in sorted(adj[cur]) if w != prev]
            nxt = nxts[0] if nxts else prev
            if nxt == v:
                break
            cyc.append(nxt)
            seen.add(nxt)
            prev, cur = cur, nxt
        cycles.append(cyc)
    return cycles


def _max_matching(vertices, edges):
    """Maximum-cardinality matching as {vertex: mate}, Edmonds' blossoms.

    One alternating-tree search from each free vertex (`_augment`).  A root
    that finds no augmenting path never will, so one pass suffices; O(V^3)
    overall (Edmonds 1965, Gabow 1976).  Vertices and neighbour lists are
    sorted, so the result does not depend on the hash seed.
    """
    vs = sorted(vertices)
    index = {v: i for i, v in enumerate(vs)}
    adj = [set() for _ in vs]
    for e in edges:
        u, v = tuple(e)
        adj[index[u]].add(index[v])
        adj[index[v]].add(index[u])
    adj = [sorted(a) for a in adj]
    mate = [-1] * len(vs)
    for root in range(len(vs)):
        if mate[root] < 0:
            _augment(adj, mate, root)
    return {vs[i]: vs[j] for i, j in enumerate(mate) if j >= 0}


def _augment(adj, mate, root):
    """BFS an alternating tree from free `root`; flip the first augmenting
    path found.  An edge between two outer vertices closes an odd cycle,
    which contracts into the lowest common base of its two tree paths."""
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    outer[root] = True
    queue = [root]

    def lca(a, b):
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while base[b] not in seen:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v, b, child, blossom):
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:  # grows while it is read
        for w in adj[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                # w is outer too: contract the odd cycle through v-w
                b = lca(v, w)
                blossom = set()
                mark(v, b, w, blossom)
                mark(w, b, v, blossom)
                for i in range(n):
                    if base[i] in blossom:
                        base[i] = b
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:  # augmenting path root..v-w: flip it
                    while w >= 0:
                        v = parent[w]
                        w_next = mate[v]
                        mate[w], mate[v] = v, w
                        w = w_next
                    return True
                outer[mate[w]] = True
                queue.append(mate[w])
    return False


def _perfect_matching(vertices, edges, forced=()):
    """A perfect matching (edge keys) containing `forced`, or None.

    Forced edges take their endpoints out; a maximum matching of the rest
    completes them when it is perfect.
    """
    forced = set(forced)
    used = set()
    for e in forced:
        if used & e:
            return None
        used |= e
    rest = [v for v in vertices if v not in used]
    mate = _max_matching(rest, [e for e in edges if not used & e])
    if len(mate) < len(rest):
        return None
    return forced | {edge_key(u, v) for u, v in mate.items()}


def petersen_decompose(g: Graph) -> PetersenDecomposition:
    """Perfect matching plus vertex-disjoint cycles covering a bridgeless
    cubic graph, connected or not: each component has them (Petersen, 1891)."""
    if not g.vertices:
        raise ConstructionError("graph is empty: the cubic classes need vertices")
    bridges = find_bridges(g)
    if bridges:
        b = sorted(tuple(sorted(e)) for e in bridges)[0]
        raise ConstructionError(f"graph has a bridge {b[0]}-{b[1]}")
    if not g.is_regular(3):
        raise ConstructionError("graph is not cubic")
    matching = _perfect_matching(g.vertices, g.edges)
    if matching is None:
        raise ConstructionError("no perfect matching found")  # pragma: no cover
    cycles = _cycles_after_matching(g.vertices, g.edges, matching)
    return PetersenDecomposition(matching=matching, cycles=cycles)


# ---------------------------------------------------------------------------
# Shared floorplan bookkeeping
# ---------------------------------------------------------------------------


def _assign_slots(matching_edges, feet):
    """Slot (z-level) per matching edge, two consecutive slots for feet.

    Returns (slot_low, slot_high) per edge; non-feet have equal entries.
    """
    slots = {}
    z = 0
    for e in sorted(matching_edges, key=lambda e: tuple(sorted(e))):
        if e in feet:
            slots[e] = (z, z + 1)
            z += 2
        else:
            slots[e] = (z, z)
            z += 1
    return slots


def _apex_of_vertices(matching, slots):
    """z-slot per vertex; a foot's endpoints split (low, high) by label.

    Choosing chord vertices as apex-maxima afterwards guarantees a footed
    chord vertex holds the upper slot of its pair whenever the other
    endpoint lies in the same cycle.
    """
    mate = {}
    for e in matching:
        u, v = tuple(e)
        mate[u] = e
        mate[v] = e
    apex = {}
    for e in matching:
        lo, hi = slots[e]
        u, v = sorted(e)
        apex[u], apex[v] = (lo, lo) if lo == hi else (lo, hi)
    return apex, mate


def _chord_last(cycles, apex):
    """Cycles rotated so each chord vertex (highest apex slot, then label)
    comes last and its smaller neighbour first, sorted by smallest label."""
    out = []
    for cyc in cycles:
        cv = max(cyc, key=lambda v: (apex[v], v))
        i = cyc.index(cv)
        rot = cyc[i + 1:] + cyc[: i + 1]
        if rot[0] > rot[-2]:
            rot = list(reversed([cv] + rot[:-1]))
        out.append(rot)
    out.sort(key=min)
    return out


def _grid_point(pos):
    """pt(label, z): the exact 3D point over label's grid position."""
    def pt(label, z=0):
        x, y = pos[label]
        return (Fraction(x), Fraction(y), Fraction(z))
    return pt


def _rect_boundary(height):
    """Boundary grid points of [0,2] x [0,height-1], ccw from the origin."""
    pts = [(0, 0), (1, 0), (2, 0)]
    pts += [(2, y) for y in range(1, height)]
    pts += [(1, height - 1), (0, height - 1)]
    pts += [(0, y) for y in range(height - 2, 0, -1)]
    return pts


def _point_in_polygon(pt, poly):
    """Strict containment, integer coordinates (exact)."""
    x, y = pt
    inside = False
    n = len(poly)
    for i in range(n):
        (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % n]
        # on-edge check
        cr = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if cr == 0 and min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2):
            return False
        # the edge crosses the horizontal through pt right of it; cr is
        # (crossing x - x) * (y2 - y1)
        if (y1 > y) != (y2 > y) and cr * (y2 - y1) > 0:
            inside = not inside
    return inside


_K4_TRIANGLES = [
    ((1, 1, 1), (1, 0, 0), (0, 0, 1)),
    ((1, 1, 1), (0, 1, 1), (1, 1, 0)),
    ((0, 0, 0), (1, 0, 0), (1, 1, 0)),
    ((0, 0, 0), (0, 1, 1), (0, 0, 1)),
]


def _k4_scene(g: Graph) -> Scene:
    """K4 as four alternate faces of an affine octahedron on a 2x2x2 grid."""
    vs = sorted(g.vertices)
    frac = lambda p: tuple(Fraction(c) for c in p)
    polygons = {v: Polygon3(corners=tuple(frac(p) for p in tri))
                for v, tri in zip(vs, _K4_TRIANGLES)}
    contacts = {}
    for a, b in combinations(vs, 2):
        shared = set(polygons[a].corners) & set(polygons[b].corners)
        contacts[edge_key(a, b)] = next(iter(shared))
    meta = {"construction": "cubic-2ec", "arithmetic": "exact",
            "claimed_grid": {"x": 3, "y": 2, "z": 2}}
    return graph_scene(g, polygons, contacts, meta)


# ---------------------------------------------------------------------------
# Bridgeless cubic graphs on a 3 x n/2 x n/2 grid
# ---------------------------------------------------------------------------

_HUB = ("hub",)  # the hub's position key; vertex labels are strings


def represent_2ec_cubic(g: Graph) -> Scene:
    return certify([_2ec_cubic_scene(g)])


def _2ec_cubic_scene(g: Graph) -> Scene:
    decomp = petersen_decompose(g)
    n = g.n
    if n == 4:
        return _k4_scene(g)

    matching = decomp.matching
    slots = _assign_slots(matching, feet=set())
    apex, mate = _apex_of_vertices(matching, slots)
    cycles = _chord_last(decomp.cycles, apex)

    boundary = _rect_boundary(n // 2)
    seq = [v for cyc in cycles for v in cyc]
    hub, offset, enclosing = _place_hub(n, boundary, seq, cycles, mate)
    pos = {v: boundary[(t + offset) % len(boundary)] for t, v in enumerate(seq)}
    pos[_HUB] = hub

    # the enclosing cycle's chord level moves to z = -1 and every level
    # above it compacts down one step
    zs = None if enclosing is None else apex[cycles[enclosing][-1]]

    def final(z):
        if zs is None or z < zs:
            return z
        return -1 if z == zs else z - 1

    # rim slot j of a cycle sits at the boundary point of its vertex j
    plan = _WheelPlan(index=0, cut={}, matching=matching, cycles=cycles,
                      slots={e: (final(lo), final(hi))
                             for e, (lo, hi) in slots.items()},
                      apex={v: final(z) for v, z in apex.items()}, hub=_HUB,
                      slot_nodes=[[[v] for v in cyc] for cyc in cycles])
    polygons = {}
    contacts = {}
    _wheel_scene_part(plan, {}, _grid_point(pos), polygons, contacts)
    meta = {"construction": "cubic-2ec", "arithmetic": "exact",
            "claimed_grid": {"x": 3, "y": n // 2, "z": n // 2}}
    return graph_scene(g, polygons, contacts, meta)


def _place_hub(n, boundary, seq, cycles, mate):
    """Choose a rotation offset and hub with at most one benign enclosure:
    the first (offset, hub) that no arc encloses, else the first that one
    arc encloses benignly, in order of offset, then hub height."""
    hubs = [(1, y) for y in range(1, n // 2 - 1)]
    nb = len(boundary)
    # the enclosed chord moves to z=-1 with its matched partner; that
    # partner must not be another cycle's chord
    chords = {cyc[-1] for cyc in cycles}
    benign = [not (set(mate[cyc[-1]]) - {cyc[-1]}) & chords for cyc in cycles]
    first = None
    for offset in range(nb):
        pos = {v: boundary[(t + offset) % nb] for t, v in enumerate(seq)}
        arcs = [[pos[v] for v in cyc] for cyc in cycles]
        for hub in hubs:
            enclosing = None
            for ci, arc in enumerate(arcs):
                (ax, ay), (bx, by) = arc[0], arc[-1]
                # hub on the chord line makes the chord triangle degenerate
                if (bx - ax) * (hub[1] - ay) - (by - ay) * (hub[0] - ax) == 0:
                    break
                if _point_in_polygon(hub, arc):
                    # only the first placement with an enclosure is kept
                    if enclosing is not None or first is not None or not benign[ci]:
                        break
                    enclosing = ci
            else:
                if enclosing is None:
                    return hub, offset, None
                first = hub, offset, enclosing
    if first is None:
        raise ConstructionError("no valid hub placement found")
    return first


# ---------------------------------------------------------------------------
# General cubic graphs: floorplans joined through bridge vertices
# ---------------------------------------------------------------------------


class _WheelPlan(Record):
    kind = "wheel"
    _fields = ("index", "cut", "matching", "cycles", "slots", "apex", "hub",
               "slot_nodes", "cycle_foot_at")

    def __init__(self, index: int, cut: dict, matching: set, cycles: list, slots: dict,
                 apex: dict, hub: object = None, slot_nodes: Optional[list] = None,
                 cycle_foot_at: Optional[dict] = None):
        self.index = index
        self.cut = cut            # cut vertex -> (foot edge key, bridge key, kind)
        self.matching = matching  # matching of the reduced graph (includes feet)
        self.cycles = cycles      # reduced-graph cycles, chord vertex last
        self.slots = slots        # matching edge -> (lo, hi)
        self.apex = apex          # reduced vertex -> z slot
        self.hub = hub            # floorplan label of the hub
        # per cycle, per slot: rim labels
        self.slot_nodes = [] if slot_nodes is None else slot_nodes
        # (cycle, slot) -> cut vertex
        self.cycle_foot_at = {} if cycle_foot_at is None else cycle_foot_at


class _CyclePlan(Record):
    kind = "cycle"
    _fields = ("index", "order")

    def __init__(self, index: int, order: list):
        self.index = index
        self.order = order  # comp vertices in cycle order


class _VertexPlan(Record):
    kind = "vertex"
    _fields = ("index", "vertex")

    def __init__(self, index: int, vertex: str):
        self.index = index
        self.vertex = vertex


def _component_plans(g: Graph, idx, comp, bridges):
    """Workable plans for one component, best first (a generator).

    Raises ConstructionError before yielding anything if there is none.
    """
    comp_edges = [e for e in g.edges if e <= comp]
    if len(comp) == 1:
        yield _VertexPlan(index=idx, vertex=next(iter(comp)))
        return
    cut = {}
    for v in sorted(comp):
        mine = [b for b in bridges if v in b]
        if mine:
            cut[v] = mine[0]
    core = set(comp) - set(cut)
    if not core:
        (order,) = _cycles_after_matching(comp, comp_edges, set())
        yield _CyclePlan(index=idx, order=order)
        return

    feet = {}
    reduced_edges = {e for e in comp_edges if not (set(e) & set(cut))}
    for u in sorted(cut):
        x, y = sorted(w for w in g.neighbors(u) if w in comp)
        fk = edge_key(x, y)
        if fk in reduced_edges or fk in feet.values():
            raise ConstructionError(
                "bridge foot duplicates an edge; this configuration is unsupported")
        feet[u] = fk
        reduced_edges.add(fk)
    foot_set = set(feet.values())
    # Feet in the matching become vertical bridge triangles; leftovers stay
    # cycle edges and their cut vertex returns by splitting the shared rim
    # corner.  Cycle feet are walled off by drawn chords in multi-cycle
    # components and cannot sit on a chord-lifted corner, so search foot
    # subsets by decreasing size, and matchings per subset, for workable
    # decompositions.
    reasons = []
    seen = set()
    workable = False
    for forced in _subsets_by_size(sorted(foot_set, key=sorted)):
        for matching in _matchings(sorted(core), reduced_edges, forced):
            if frozenset(matching) in seen:
                continue  # a matching makes the same plan whatever was forced
            seen.add(frozenset(matching))
            plan = _try_wheel_plan(idx, cut, feet, core, reduced_edges,
                                   matching, reasons)
            if plan is not None:
                workable = True
                yield plan
    if not workable:
        raise ConstructionError(
            "no workable matching for the bridge feet: "
            + (reasons[0] if reasons else "component admits no perfect matching"))


def _subsets_by_size(items):
    """Subsets of items, largest first; within a size in increasing order of
    their bitmask (item i is bit i), generated one at a time."""
    k = len(items)
    for size in range(k, -1, -1):
        mask = (1 << size) - 1
        while mask < 1 << k:
            yield {x for i, x in enumerate(items) if mask >> i & 1}
            if not mask:
                break
            low = mask & -mask  # next mask with as many bits (Gosper)
            up = mask + low
            mask = (((up ^ mask) >> 2) // low) | up


_MATCHINGS_PER_SUBSET = 8


def _matchings(vertices, edges, forced):
    """Distinct perfect matchings containing `forced`, the blossom's first.

    The rest come from Lawler's partition: once a matching M is found, the
    other matchings of its subproblem split into those that keep M's first
    i free edges and drop the next one.  Subproblems are tried breadth
    first, and at most _MATCHINGS_PER_SUBSET matchings are yielded.
    """
    queue = [(frozenset(forced), frozenset())]
    found = 0
    for keep, drop in queue:
        matching = _perfect_matching(
            vertices, [e for e in edges if e not in drop], keep)
        if matching is None:
            continue
        yield matching
        found += 1
        if found == _MATCHINGS_PER_SUBSET:
            return
        free = sorted(matching - keep, key=sorted)
        queue += [(keep | set(free[:i]), drop | {e})
                  for i, e in enumerate(free)]


def _try_wheel_plan(idx, cut, feet, core, reduced_edges, matching, reasons):
    foot_set = set(feet.values())
    cycles = _cycles_after_matching(sorted(core), reduced_edges, matching)
    slots = _assign_slots(matching, foot_set & matching)
    apex, _ = _apex_of_vertices(matching, slots)
    rotated = _chord_last(cycles, apex)
    cutinfo = {}
    for u in cut:
        kind = "matching" if feet[u] in matching else "cycle"
        cutinfo[u] = (feet[u], cut[u], kind)
    cycle_feet = {fk for fk, _, kind in cutinfo.values() if kind == "cycle"}
    if cycle_feet and len(rotated) >= 2:
        reasons.append("cycle-type feet in a multi-cycle component are "
                       "walled off by a drawn chord")
        return None
    for cyc in rotated:
        m = len(cyc)
        for j in (0, m - 1):
            if edge_key(cyc[j - 1], cyc[j]) in cycle_feet:
                reasons.append("cycle-type foot on a chord-lifted rim corner")
                return None
    return _WheelPlan(index=idx, cut=cutinfo, matching=matching,
                      cycles=rotated, slots=slots, apex=apex)


def _build_floorplan(g: Graph, bbt: BridgeBlockTree, plans):
    """Assemble the global plane graph H from one plan per component:
    (H, vb_label), vb_label naming each bridge's vertex in H."""
    H = PlaneGraph()
    vb_label = {}
    for bi, b in enumerate(sorted(bbt.bridges, key=lambda e: tuple(sorted(e)))):
        vb_label[b] = f"vb{bi}"
    for lbl in vb_label.values():
        H.add_vertex(lbl)
    vb_sides = {lbl: {} for lbl in vb_label.values()}  # label -> {comp: [darts]}

    for plan in plans:
        if plan.kind == "vertex":
            _embed_vertex_comp(H, g, plan, vb_label, vb_sides)
        elif plan.kind == "cycle":
            _embed_cycle_comp(H, g, plan, vb_label, vb_sides)
        else:
            _embed_wheel_comp(H, g, plan, vb_label, vb_sides)

    # interleave each bridge vertex's two attachment groups
    for lbl, sides in vb_sides.items():
        rot = []
        for ci in sorted(sides):
            rot.extend(sides[ci])
        H.rotation[lbl] = rot
    return H, vb_label


def _embed_vertex_comp(H, g, plan, vb_label, vb_sides):
    u = plan.vertex
    labels = [vb_label[edge_key(u, w)] for w in sorted(g.neighbors(u))]
    plan.vbs = labels
    eid = {frozenset(p): H.record_edge(*p) for p in combinations(labels, 2)}
    for j, lbl in enumerate(labels):
        vb_sides[lbl][plan.index] = [H.dart(eid[frozenset((lbl, other))], lbl)
                                     for other in (labels[(j + 1) % 3], labels[(j - 1) % 3])]


def _embed_cycle_comp(H, g, plan, vb_label, vb_sides):
    m = len(plan.order)
    rims = [f"c{plan.index}w{t}" for t in range(m)]
    plan.rim = rims
    for w in rims:
        H.add_vertex(w)
    rim_eids = {t: H.record_edge(rims[t], rims[(t + 1) % m]) for t in range(m)}
    vb_eids = {}
    for t, u in enumerate(plan.order):
        b = [bk for bk in vb_label if u in bk][0]
        lbl = vb_label[b]
        vb_eids[t] = (H.record_edge(rims[t], lbl),
                      H.record_edge(rims[(t + 1) % m], lbl), lbl)

    for t in range(m):
        w = rims[t]
        e_next = rim_eids[t]
        e_prev = rim_eids[(t - 1) % m]
        att_right = vb_eids[t][0]          # vb over edge (t, t+1)
        att_left = vb_eids[(t - 1) % m][1]  # vb over edge (t-1, t)
        H.rotation[w] = [H.dart(e_next, w), H.dart(att_right, w),
                         H.dart(att_left, w), H.dart(e_prev, w)]
    for t in range(m):
        e1, e2, lbl = vb_eids[t]
        vb_sides[lbl][plan.index] = [H.dart(e1, lbl), H.dart(e2, lbl)]


def _embed_wheel_comp(H, g, plan, vb_label, vb_sides):
    """Wheel floorplan: rim slots, hub, chords, foot chains and splits.

    Rim slot j of a cycle is the contact of its cycle edge (cyc[j-1],
    cyc[j]).  A slot whose edge is a cycle-type foot is split into two rim
    vertices with the bridge vertex hanging outside between them; matching
    feet chain through a dummy gap instead.  Chords (multi-cycle
    components) are drawn over their arcs so each chord triangle's region
    is exactly its own cycle's faces.
    """
    hub = f"c{plan.index}h"
    plan.hub = hub
    H.add_vertex(hub)
    k = len(plan.cycles)

    cycle_foot_at = {}
    for u, (fk, bk, kind) in plan.cut.items():
        if kind != "cycle":
            continue
        for ci, cyc in enumerate(plan.cycles):
            for j in range(len(cyc)):
                if edge_key(cyc[j - 1], cyc[j]) == fk:
                    cycle_foot_at[(ci, j)] = u
    plan.cycle_foot_at = cycle_foot_at

    slot_nodes = []
    t = 0
    for ci, cyc in enumerate(plan.cycles):
        row = []
        for j in range(len(cyc)):
            if (ci, j) in cycle_foot_at:
                row.append([f"c{plan.index}w{t}a", f"c{plan.index}w{t}b"])
            else:
                row.append([f"c{plan.index}w{t}"])
            t += 1
        slot_nodes.append(row)
    plan.slot_nodes = slot_nodes
    for row in slot_nodes:
        for names in row:
            for nm in names:
                H.add_vertex(nm)

    matching_feet = sorted(
        (u for u, (fk, bk, kind) in plan.cut.items() if kind == "matching"),
        key=lambda u: sorted(plan.cut[u][0]))
    min_label_cycle = min(range(k), key=lambda ci: min(plan.cycles[ci]))
    gap_of = (min_label_cycle - 1) % k
    chains = {gi: [] for gi in range(k)}
    for u in matching_feet:
        chains[gap_of].append(u)

    spoke = {}
    for row in slot_nodes:
        for names in row:
            for nm in names:
                spoke[nm] = H.record_edge(hub, nm)

    intra = {}
    foot_vb = {}
    inter = {}
    chords = {}
    for ci, cyc in enumerate(plan.cycles):
        m = len(cyc)
        row = slot_nodes[ci]
        for j in range(m):
            if len(row[j]) == 2:
                a, b = row[j]
                intra[(ci, j)] = H.record_edge(a, b)
                u = cycle_foot_at[(ci, j)]
                lbl = vb_label[plan.cut[u][1]]
                foot_vb[(ci, j)] = (H.record_edge(a, lbl),
                                    H.record_edge(lbl, b), lbl)
        for j in range(m - 1):
            inter[(ci, j)] = H.record_edge(row[j][-1], row[j + 1][0])
        if k >= 2:
            chords[ci] = H.record_edge(row[0][0], row[m - 1][-1])

    gap_eids = {}
    chain_nodes = {}
    chain_edges = {}
    hub_chain = {}
    for gi in range(k):
        x_nm = slot_nodes[gi][-1][-1]
        y_nm = slot_nodes[(gi + 1) % k][0][0]
        chain = chains[gi]
        if not chain:
            gap_eids[gi] = H.record_edge(x_nm, y_nm)
            continue
        nodes = [vb_label[plan.cut[u][1]] for u in chain]
        chain_nodes[gi] = nodes
        seq = [x_nm] + nodes + [y_nm]
        chain_edges[gi] = [H.record_edge(seq[i], seq[i + 1])
                           for i in range(len(seq) - 1)]
        hub_chain[gi] = {lbl: H.record_edge(hub, lbl) for lbl in nodes}

    rot_h = []
    for ci in range(k):
        for names in slot_nodes[ci]:
            rot_h += [H.dart(spoke[nm], hub) for nm in names]
        for lbl in chain_nodes.get(ci, []):
            rot_h.append(H.dart(hub_chain[ci][lbl], hub))
    H.rotation[hub] = rot_h

    # rim rotations, ccw: [next, hub, prev, outward attachments]; split
    # slots put the bridge vertex between their two copies on the outside
    for ci, cyc in enumerate(plan.cycles):
        m = len(cyc)
        row = slot_nodes[ci]
        for j in range(m):
            if j > 0:
                e_prev = inter[(ci, j - 1)]
            else:
                gi = (ci - 1) % k
                e_prev = chain_edges[gi][-1] if gi in chain_nodes \
                    else gap_eids[gi]
            if j < m - 1:
                e_next = inter[(ci, j)]
            else:
                gi = ci
                e_next = chain_edges[gi][0] if gi in chain_nodes \
                    else gap_eids[gi]
            names = row[j]
            if len(names) == 1:
                nm = names[0]
                rot = [H.dart(e_next, nm), H.dart(spoke[nm], nm),
                       H.dart(e_prev, nm)]
                if k >= 2 and j in (0, m - 1):
                    rot.append(H.dart(chords[ci], nm))
                H.rotation[nm] = rot
            else:
                a, b = names
                e_ab = intra[(ci, j)]
                e_avb, e_vbb, lbl = foot_vb[(ci, j)]
                H.rotation[a] = [H.dart(e_ab, a), H.dart(spoke[a], a),
                                 H.dart(e_prev, a), H.dart(e_avb, a)]
                H.rotation[b] = [H.dart(e_next, b), H.dart(spoke[b], b),
                                 H.dart(e_ab, b), H.dart(e_vbb, b)]
                # the foot triangle face (a, vb, b) needs the b-dart right
                # before the a-dart once partner darts are appended
                vb_sides[lbl][plan.index] = [H.dart(e_vbb, lbl),
                                             H.dart(e_avb, lbl)]

    for gi, nodes in chain_nodes.items():
        edges = chain_edges[gi]
        for j, lbl in enumerate(nodes):
            vb_sides[lbl][plan.index] = [H.dart(edges[j + 1], lbl),
                                         H.dart(hub_chain[gi][lbl], lbl),
                                         H.dart(edges[j], lbl)]


def represent_cubic(g: Graph) -> Scene:
    """Any cubic graph as touching triangles, exact coordinates.

    Without bridges this is the rectangle construction; with bridges the
    components' floorplans are drawn together by the Schnyder algorithm
    and each cut vertex becomes a vertical triangle over its bridge vertex.
    A bridged graph with several components has each one built on its own
    and set side by side (`_side_by_side`).
    """
    return _certified_cubic(g, lambda scene: scene)


def _certified_cubic(g: Graph, finish) -> Scene:
    """`represent_cubic`, with each candidate scene passed through `finish`
    before it goes to `certify`."""
    if not g.is_regular(3):
        raise ConstructionError("graph is not cubic")
    bbt = bridge_block_tree(g)
    if not bbt.bridges:
        return certify([finish(_2ec_cubic_scene(g))])
    parts = components(g.vertices, g.neighbors)
    if len(parts) > 1:
        subs = [Graph(vertices=tuple(v for v in g.vertices if v in part),
                      edges=frozenset(e for e in g.edges if e <= part)) for part in parts]
        return certify([finish(_side_by_side(g, [represent_cubic(sub) for sub in subs]))])

    searches = [_component_plans(g, i, comp, bbt.bridges)
                for i, comp in enumerate(bbt.components)]
    plans = [next(search) for search in searches]
    while True:
        H, vb_label = _build_floorplan(g, bbt, plans)
        scene, lifted = _draw_floorplan(g, H, plans, vb_label)
        try:
            return certify([finish(scene)])
        except ConstructionError:
            pass
        # the scene does not certify: move a lifted component, or else another
        # one, on to its next workable plan
        first = sorted({idx for idx, _ in lifted})
        for i in first + [i for i in range(len(plans)) if i not in first]:
            plan = next(searches[i], None)
            if plan is not None:
                plans[i] = plan
                break
        else:
            raise ConstructionError("no workable plan gives a scene that certifies")


def _side_by_side(g: Graph, scenes) -> Scene:
    """One scene of g from its components' `scenes`, each moved along x past
    the previous one's largest x plus 1.  Their boxes are then apart, so
    they add no contact, and no coordinate value is shared on x: each
    axis's grid claim is the sum of theirs."""
    polygons, contacts, x = {}, {}, 0
    for scene in scenes:
        points = set(scene.all_points())
        dx = x - min(p[0] for p in points)
        moved = {p: (p[0] + dx, p[1], p[2]) for p in points}
        x = max(p[0] for p in moved.values()) + 1
        for v, poly in scene.polygons.items():
            polygons[v] = Polygon3(corners=tuple(map(moved.get, poly.corners)))
        contacts.update((e, moved[p]) for e, p in scene.contacts.items())
    claims = [scene.meta["claimed_grid"] for scene in scenes]
    meta = {"construction": "cubic", "arithmetic": "exact", "components": len(scenes),
            "claimed_grid": {axis: sum(c[axis] for c in claims) for axis in "xyz"}}
    return graph_scene(g, polygons, contacts, meta)


def _draw_floorplan(g: Graph, H, plans, vb_label):
    """Schnyder-draw the floorplan: (scene, lifted).

    lifted holds the (component, cycle) pairs whose chord the scene lifts
    (`_wheel_scene_part`).
    """
    if len(H.rotation) > len(g.edges):
        raise ConstructionError(f"floorplan has {len(H.rotation)} vertices, "
                                f"more than the graph's {len(g.edges)} edges")
    pos = schnyder_draw(H)

    # a chord triangle degenerates when the drawing put the hub on the line
    # of its two rim corners (possible once a foot chain replaced the
    # closing edge); such a chord's first corner is lifted
    lifted = set()
    for plan in plans:
        if plan.kind != "wheel":
            continue
        for ci, cyc in enumerate(plan.cycles):
            row = plan.slot_nodes[ci]
            p0 = pos[row[0][0]]
            pm = pos[row[len(cyc) - 1][-1]]
            ph = pos[plan.hub]
            cr = (pm[0] - p0[0]) * (ph[1] - p0[1]) \
                - (pm[1] - p0[1]) * (ph[0] - p0[0])
            if cr == 0:
                lifted.add((plan.index, ci))

    pt = _grid_point(pos)
    polygons = {}
    contacts = {}
    for b, lbl in vb_label.items():
        contacts[b] = pt(lbl)
    for plan in plans:
        if plan.kind == "vertex":
            u = plan.vertex
            polygons[u] = Polygon3(
                corners=tuple(pt(lbl) for lbl in plan.vbs))
        elif plan.kind == "cycle":
            m = len(plan.order)
            for t, u in enumerate(plan.order):
                b = [bk for bk in vb_label if u in bk][0]
                corners = (pt(plan.rim[t]), pt(plan.rim[(t + 1) % m]),
                           pt(vb_label[b]))
                polygons[u] = Polygon3(corners=corners)
                contacts[edge_key(plan.order[t - 1], u)] = pt(plan.rim[t])
        else:
            _wheel_scene_part(plan, vb_label, pt, polygons, contacts, lifted)
    meta = {"construction": "cubic", "arithmetic": "exact",
            "floorplan_vertices": len(H.rotation),
            "claimed_grid": {"x": 3 * g.n // 2, "y": 3 * g.n // 2,
                             "z": g.n // 2}}
    return graph_scene(g, polygons, contacts, meta), lifted


def _wheel_scene_part(plan: _WheelPlan, vb_label, pt, polygons, contacts,
                      lifted=frozenset()):
    """Add the triangles and contacts of one wheel plan.

    Cycle vertex j spans rim slots j and j+1 and the hub at its apex
    level; the chord vertex (last) spans the first and last slots and the
    hub at its own level, which those two slots share.  `pt(label, z)` is
    a floorplan label's point; a cycle in `lifted` raises its first slot
    by 1/4.  Both cubic constructions build their wheels here.
    """
    hub = plan.hub
    all_feet = {fk for fk, _, _ in plan.cut.values()}
    for ci, cyc in enumerate(plan.cycles):
        row = plan.slot_nodes[ci]
        m = len(cyc)
        zc = plan.apex[cyc[-1]]

        def point_at(j, side):
            z = zc if j in (0, m - 1) else 0
            if j == 0 and (plan.index, ci) in lifted:
                z = zc + Fraction(1, 4)
            names = row[j]
            return pt(names[0] if side == "first" else names[-1], z)

        for j, v in enumerate(cyc):
            if j == m - 1:
                corners = (point_at(0, "first"), point_at(m - 1, "last"),
                           pt(hub, zc))
            else:
                corners = (point_at(j, "last"), point_at(j + 1, "first"),
                           pt(hub, plan.apex[v]))
            polygons[v] = Polygon3(corners=corners)
        for j in range(m):
            if len(row[j]) == 1:
                contacts[edge_key(cyc[j - 1], cyc[j])] = point_at(j, "first")
    for e in plan.matching:
        if e not in all_feet:
            contacts[e] = pt(hub, plan.slots[e][0])
    located = {u: key for key, u in plan.cycle_foot_at.items()}
    for u, (foot, bridge, kind) in plan.cut.items():
        x, y = sorted(foot)
        if kind == "matching":
            corners = (pt(hub, plan.apex[x]), pt(hub, plan.apex[y]),
                       pt(vb_label[bridge]))
            polygons[u] = Polygon3(corners=corners)
            contacts[edge_key(u, x)] = pt(hub, plan.apex[x])
            contacts[edge_key(u, y)] = pt(hub, plan.apex[y])
        else:
            ci, j = located[u]
            cyc = plan.cycles[ci]
            a_nm, b_nm = plan.slot_nodes[ci][j]
            polygons[u] = Polygon3(corners=(pt(a_nm), pt(b_nm),
                                            pt(vb_label[bridge])))
            contacts[edge_key(u, cyc[j - 1])] = pt(a_nm)
            contacts[edge_key(u, cyc[j])] = pt(b_nm)


# ---------------------------------------------------------------------------
# Maximum degree 3
# ---------------------------------------------------------------------------


def _pad_stubs(g: Graph) -> Graph:
    """g, not cubic or empty, made cubic: each missing degree (a stub) gets
    its own dummy vertex.  With s stubs, s >= 4 dummies are joined in a
    cycle; s = 3 dummies d0, d1, d2 and two more, x and y, form the 5-cycle
    d0 x d2 y d1 with the chord x y, so d0 and d2 are not neighbours; s = 2
    dummies are the ends of the missing edge of a dummy K4 minus an edge,
    s = 1 is joined to both ends of that missing edge, and s = 0 (the empty
    graph) is that edge: g plus a dummy K4.  The padded order is at most
    max(4n, n + 5)."""
    # most stubs first, then every other place: the two stubs of a vertex
    # with one edge are never neighbours on the cycle when s >= 4, and take
    # d0 and d2 when s = 3, so a bridge to it has a foot that is not an edge
    stubs = sorted((v for v in g.vertices for _ in range(3 - g.degree(v))), key=g.degree)
    s = len(stubs)
    stubs[::2], stubs[1::2] = stubs[:(s + 1) // 2], stubs[(s + 1) // 2:]
    d = dummy_labels(g, s + {0: 4, 1: 4, 2: 2, 3: 2}.get(s, 0))
    pads = list(zip(stubs, d))
    if s >= 4:
        pads += [(d[i - 1], d[i]) for i in range(s)]
    elif s == 3:
        x, y = d[3:]
        pads += [(d[0], x), (x, d[2]), (d[2], y), (y, d[1]), (d[1], d[0]), (x, y)]
    else:
        a, b, c, e = d[-4:]  # K4 minus ab
        pads += [(a, c), (a, e), (b, c), (b, e), (c, e)]
        if s == 1:
            pads += [(d[0], a), (d[0], b)]
        elif s == 0:
            pads.append((a, b))
    return Graph(vertices=g.vertices + tuple(d),
                 edges=g.edges | frozenset(edge_key(u, v) for u, v in pads))


def represent_max_degree3(g: Graph) -> Scene:
    """Triangles for graphs of maximum degree 3.

    A cubic graph is `represent_cubic`'s.  Any other, the empty graph too,
    is padded to a cubic one by `_pad_stubs`, and the cubic scene, on the
    padded graph's own grid, is retracted to it (`scene.retract`): a vertex
    of degree below 3 keeps its real contacts and pulls the others into its
    triangle.  Only retracted scenes are certified.
    """
    bad = [v for v in g.vertices if g.degree(v) > 3]
    if bad:
        raise ConstructionError(f"vertices of degree > 3: {bad}")
    if g.vertices and g.is_regular(3):
        return represent_cubic(g)
    return _certified_cubic(_pad_stubs(g), lambda scene: retract(
        g, scene, dict(scene.meta, construction="max-degree-3")))
