"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Tolerances are pinned here, not configured.
"""

import functools
import math
import time
from itertools import combinations

import networkx as nx

from polycontact import (ConstructionError, Graph, SteinerDescriptor,
                         builtin_system, counting_certificate, edge_key,
                         find_obstruction_pattern, graph_from_edge_list,
                         grid_extent, pattern_assignment_valid,
                         represent_2ec_cubic, represent_bipartite_grid,
                         represent_complete, represent_cubic,
                         represent_cycle_square, represent_fano,
                         represent_k33_unit_triangles, represent_min_degree3,
                         represent_oneplanar_cubic, represent_s239,
                         validate_steiner, verify_scene)
from polycontact.arrangement import audit_arrangement, build_line_arrangement
from polycontact.bipartite import complete_bipartite

from conftest import all_oneplanar_fixtures, gadget_chain
from test_steiner import double_sqs


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {number:2d}] FAIL  {title}")
                raise
            print(f"\n[criterion {number:2d}] PASS  {title}")
        return wrapper
    return deco


@criterion(1, "complete graphs n=4..12: exact verification under 5 s each")
def test_criterion_01_complete_graphs():
    for n in range(4, 13):
        t0 = time.time()
        scene = represent_complete(n)
        report = verify_scene(scene)
        elapsed = time.time() - t0
        assert report.passed, f"n={n}: {report.to_text()}"
        assert len(report.reconstructed) == n * (n - 1) // 2
        assert all(len(p.corners) <= n - 1 for p in scene.polygons.values())
        assert elapsed < 5.0, f"n={n} took {elapsed:.2f}s"


@criterion(2, "line arrangement audit n=3..12: independent checker clean")
def test_criterion_02_arrangement_audit():
    for n in range(3, 13):
        arr = build_line_arrangement(n)
        failures = audit_arrangement(arr)
        assert failures == [], f"n={n}: {failures}"


@criterion(3, "min-degree-3: Petersen and 20 random cubic graphs")
def test_criterion_03_min_degree3():
    cases = []
    lines = []
    for i in range(5):
        lines += [f"{i} {(i + 1) % 5}", f"{i} {i + 5}",
                  f"{i + 5} {(i + 2) % 5 + 5}"]
    cases.append(graph_from_edge_list("\n".join(lines)))
    for n in (6, 8, 10, 12, 14):
        for seed in range(4):
            gx = nx.random_regular_graph(3, n, seed=seed)
            cases.append(Graph.from_edges([(str(u), str(v))
                                           for u, v in gx.edges()]))
    assert len(cases) == 21
    for g in cases:
        scene = represent_min_degree3(g)
        report = verify_scene(scene)
        assert report.passed, report.to_text()
        assert len(report.reconstructed) == len(g.edges)


def _assert_extent_within(ext, bound, what):
    """Each axis on its own: tuple <= would compare lexicographically."""
    for axis, got, most in zip("xyz", (ext.gx, ext.gy, ext.gz), bound):
        assert got <= most, f"{what}: {axis}-extent {got} exceeds {most}"


@criterion(4, "bipartite integer grid: all K(a,b), a,b in 3..10")
def test_criterion_04_bipartite_grid():
    for a in range(3, 11):
        for b in range(3, 11):
            scene = represent_bipartite_grid(complete_bipartite(a, b))
            report = verify_scene(scene)
            assert report.passed, f"K{a},{b}: {report.to_text()}"
            for poly in scene.polygons.values():
                for c in poly.corners:
                    assert all(x.denominator == 1 for x in c)
            ext = grid_extent(scene)
            ca, cb = (a + 1) // 2, (b + 3) // 4
            bound = sorted((a, 2 * cb, ca * ca + cb * cb))
            for got, most in zip(sorted((ext.gx, ext.gy, ext.gz)), bound):
                assert got <= most, f"K{a},{b}: extent {ext} exceeds {bound}"


@criterion(5, "K33 by unit equilateral triangles")
def test_criterion_05_k33():
    scene = represent_k33_unit_triangles()
    assert len(scene.polygons) == 6
    for poly in scene.polygons.values():
        cs = poly.corners
        for i in range(3):
            assert abs(math.dist(cs[i], cs[(i + 1) % 3]) - 1.0) <= 1e-9
    beta = scene.meta["beta_degrees"]
    assert abs(beta - (120.0 - math.degrees(math.acos(-1 / 8)))) <= 1e-6
    report = verify_scene(scene)
    assert report.passed, report.to_text()


@criterion(6, "1-plane cubic: handcrafted embeddings on a depth-3 grid")
def test_criterion_06_oneplanar():
    fixtures = all_oneplanar_fixtures()
    assert len(fixtures) >= 5
    assert any("bconfig" in name for name in fixtures)
    for name, emb in sorted(fixtures.items()):
        scene = represent_oneplanar_cubic(emb)
        report = verify_scene(scene)
        assert report.passed, f"{name}: {report.to_text()}"
        for w in report.warnings:
            assert w.code in ("boundary-touch", "degenerate-polygon",
                              "polygon-issues"), f"{name}: {w}"
        n = emb.graph.n
        ext = grid_extent(scene)
        _assert_extent_within(ext, (3 * n // 2 - 1, 3 * n // 2 - 1, 3), name)
        if not emb.crossings:
            zs = {c[2] for p in scene.polygons.values() for c in p.corners}
            assert zs == {0}, f"{name} not flat"


@criterion(7, "cubic graphs: K4, Petersen, and bridged gadget chains")
def test_criterion_07_cubic():
    k4 = Graph.from_edges([(i, j) for i in "abcd" for j in "abcd" if i < j])
    ext = grid_extent(represent_2ec_cubic(k4))
    _assert_extent_within(ext, (3, 2, 2), "K4")

    lines = []
    for i in range(5):
        lines += [f"{i} {(i + 1) % 5}", f"{i} {i + 5}",
                  f"{i + 5} {(i + 2) % 5 + 5}"]
    petersen = graph_from_edge_list("\n".join(lines))
    scene = represent_2ec_cubic(petersen)
    assert verify_scene(scene).passed
    assert grid_extent(scene).gz <= 5

    for k in (2, 3, 4):
        g = gadget_chain(k)
        assert g.n <= 24 and g.is_regular(3)
        scene = represent_cubic(g)
        report = verify_scene(scene)
        assert report.passed, f"chain {k}: {report.to_text()}"
        ext = grid_extent(scene)
        n = g.n
        _assert_extent_within(ext, (3 * n // 2, 3 * n // 2, n // 2), f"chain {k}")


@criterion(8, "cycle squares: unit squares (even) and bounded splits (odd)")
def test_criterion_08_cycle_squares():
    problems = []
    for n in (6, 8, 10, 12):
        try:
            scene = represent_cycle_square(n)
        except ConstructionError as exc:
            problems.append(f"n={n}: {exc}")
            continue
        report = verify_scene(scene)
        if not report.passed:
            problems.append(f"n={n}: verification failed")
            continue
        for poly in scene.polygons.values():
            cs = poly.corners
            if any(abs(math.dist(cs[i], cs[(i + 1) % 4]) - 1.0) > 1e-9
                   for i in range(4)):
                problems.append(f"n={n}: not unit squares")
                break
        if n == 6 and abs(scene.meta["ring_height"] - math.sqrt(2 / 3)) > 1e-9:
            problems.append("n=6: ring height differs from sqrt(2/3)")
    for n in (7, 9, 11):
        scene = represent_cycle_square(n)
        report = verify_scene(scene)
        if not report.passed:
            problems.append(f"n={n}: verification failed")
            continue
        lens = [math.dist(p.corners[i], p.corners[(i + 1) % 4])
                for p in scene.polygons.values() for i in range(4)]
        if max(lens) / min(lens) > 3.0:
            problems.append(f"n={n}: edge ratio {max(lens) / min(lens):.3f}")
        if max(lens) >= 2.0:
            problems.append(f"n={n}: edge {max(lens):.3f} >= 2")
        if min(lens) <= 0.69:
            problems.append(f"n={n}: min edge {min(lens):.4f} <= 0.69")
    assert not problems, "; ".join(problems)


@criterion(9, "Steiner triple drawings: Fano and S(2,3,9)")
def test_criterion_09_steiner_drawings():
    fano = represent_fano()
    assert fano.meta["alpha_degrees"] == 85.0
    assert verify_scene(fano).passed

    s239 = represent_s239()
    report = verify_scene(s239)
    assert report.passed, report.to_text()
    pts = [c for p in s239.polygons.values() for c in p.corners]
    for axis, bound in ((0, 1.0), (1, 1.0), (2, 1.5)):
        vals = [p[axis] for p in pts]
        assert max(vals) - min(vals) <= bound + 1e-6
    contact_pts = list(s239.contacts.values())
    dmin = min(math.dist(a, b) for a, b in combinations(contact_pts, 2))
    assert dmin >= 0.2 - 1e-6


@criterion(10, "quadruple-system obstructions and built-in validation")
def test_criterion_10_obstructions():
    h10 = builtin_system("S3410")
    found = find_obstruction_pattern(h10)
    assert found is not None and pattern_assignment_valid(h10, found)
    paper = {"a": 1, "b": 4, "c": 2, "d": 5, "u": 7, "v": 9, "w": 6,
             "x": 0, "y": 3, "z": 8}
    assert pattern_assignment_valid(h10, paper)

    cert = counting_certificate(h10, SteinerDescriptor(3, 4, 10))
    assert cert.kind == "ConvexQuadObstruction"
    assert (cert.convex_link_edges, cert.planar_bound) == (24, 21)

    h20 = double_sqs(h10)
    cert20 = counting_certificate(h20, SteinerDescriptor(3, 4, 20))
    assert cert20.kind == "AnyQuadObstruction"
    assert (cert20.any_link_edges, cert20.planar_bound) == (57, 51)

    cert8 = counting_certificate(builtin_system("S348"),
                                 SteinerDescriptor(3, 4, 8))
    assert cert8.kind == "KnownCase_S348"

    for name in ("S237", "S239", "S348", "S3410"):
        h = builtin_system(name)
        from polycontact import builtin_descriptor
        ok, witness = validate_steiner(h, builtin_descriptor(name))
        assert ok, (name, witness)


@criterion(11, "verifier negative suite: designed violations all caught")
def test_criterion_11_negative_suite():
    from fractions import Fraction as F

    from polycontact import Polygon3, graph_scene

    def T(*cs):
        return Polygon3(corners=tuple(tuple(map(F, c)) for c in cs))

    def pair_scene(a, b, contact=None):
        g = Graph.from_edges([("a", "b")])
        contacts = {edge_key("a", "b"): contact} if contact else {}
        return graph_scene(g, {"a": a, "b": b},
                           contacts, {"construction": "neg",
                                      "arithmetic": "exact"})

    cases = []

    base = represent_complete(4)
    moved = represent_complete(4)
    victim = sorted(moved.polygons)[0]
    moved.polygons[victim] = Polygon3(
        corners=tuple((x, y, z + 10) for x, y, z in
                      moved.polygons[victim].corners))
    cases.append(("translated polygon", moved, "missing-contact"))

    merged = represent_complete(4)
    keys = sorted(merged.contacts, key=lambda e: sorted(e))
    p1, p2 = merged.contacts[keys[0]], merged.contacts[keys[1]]
    for label, poly in merged.polygons.items():
        merged.polygons[label] = Polygon3(corners=tuple(
            p1 if tuple(c) == tuple(p2) else c for c in poly.corners))
    merged.contacts[keys[1]] = p1
    cases.append(("merged contacts", merged,
                  ("merged-contacts", "contact-count")))

    cases.append(("coplanar interior overlap",
                  pair_scene(T((0, 0, 0), (4, 0, 0), (0, 4, 0)),
                             T((0, 0, 0), (4, 1, 0), (1, 4, 0)),
                             (F(0), F(0), F(0))),
                  "interior-overlap"))
    cases.append(("corner on edge",
                  pair_scene(T((0, 0, 0), (4, 0, 0), (0, 4, 0)),
                             T((2, 0, 0), (3, -2, 2), (1, -2, 2))),
                  "corner-on-boundary"))
    cases.append(("corner inside",
                  pair_scene(T((0, 0, 0), (4, 0, 0), (0, 4, 0)),
                             T((1, 1, 0), (3, -2, 2), (1, -2, 2))),
                  "corner-inside"))
    cases.append(("transversal piercing",
                  pair_scene(T((0, 0, 0), (4, 0, 0), (0, 4, 0)),
                             T((0, 0, 0), (3, 3, -1), (3, 3, 1)),
                             (F(0), F(0), F(0))),
                  "interior-overlap"))
    cases.append(("crossing plus-sign",
                  pair_scene(T((-2, 0, -1), (2, 0, -1), (2, 0, 1), (-2, 0, 1)),
                             T((0, -2, -1), (0, 2, -1), (0, 2, 1), (0, -2, 1))),
                  "interior-overlap"))
    cases.append(("nonplanar polygon",
                  pair_scene(T((0, 0, 0), (4, 0, 0), (4, 4, 1), (0, 4, 0)),
                             T((10, 0, 0), (11, 0, 0), (10, 1, 0))),
                  "nonplanar"))
    cases.append(("bowtie polygon",
                  pair_scene(T((0, 0, 0), (2, 2, 0), (2, 0, 0), (0, 2, 0)),
                             T((5, 0, 0), (6, 0, 0), (5, 1, 0))),
                  "not-simple"))
    cases.append(("false convexity claim",
                  pair_scene(T((0, 0, 0), (4, 0, 0), (1, 1, 0), (0, 4, 0)),
                             T((10, 0, 0), (11, 0, 0), (10, 1, 0))),
                  "not-convex"))

    extra = represent_complete(4)
    g = extra.structure
    edges = sorted(g.edges, key=sorted)
    g2 = Graph.from_edges([tuple(sorted(e)) for e in edges[1:]],
                          vertices=g.vertices)
    from polycontact import graph_scene as gs
    contacts = {e: p for e, p in extra.contacts.items() if e != edges[0]}
    cases.append(("shared corner without edge",
                  gs(g2, extra.polygons, contacts, extra.meta),
                  "shared-corner-without-edge"))

    wrong = represent_complete(4)
    key = sorted(wrong.contacts, key=lambda e: sorted(e))[0]
    wrong.contacts[key] = (F(99), F(99), F(99))
    cases.append(("declared contact mismatch", wrong, "declared-mismatch"))

    assert len(cases) >= 10
    for name, scene, expected in cases:
        report = verify_scene(scene)
        assert not report.passed, f"{name} unexpectedly passed"
        codes = report.violation_codes()
        if isinstance(expected, tuple):
            assert codes & set(expected), f"{name}: got {codes}"
        else:
            assert expected in codes, f"{name}: got {codes}"
