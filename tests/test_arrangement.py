"""Line arrangement and the lifted complete-graph construction."""

import hashlib
from dataclasses import replace
from fractions import Fraction as F

import pytest

from polycontact import (ConstructionError, Polygon3, arrangement_ok,
                         build_line_arrangement, edge_key,
                         graph_from_edge_list, polygon_properties,
                         represent_complete, represent_min_degree3, strictify,
                         verify_scene)
from polycontact.cli import main


def audit_arrangement(arr):
    """Independent ordering/halving audit of `arr`, recomputed from raw points.

    Uses squared distances only (never parameters from the construction's
    own bookkeeping): collinear points are ordered by projecting onto the
    extreme pair, and the halving inequality 2*d(next) <= d(prev) is
    checked via 4*d2(next) <= d2(prev) on squared lengths.
    """
    failures = []
    n = arr.n
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        pts = [arr.point(i, j) for j in others]
        first, last = pts[0], pts[-1]
        axis = (last[0] - first[0], last[1] - first[1])
        params = [(p[0] - first[0]) * axis[0] + (p[1] - first[1]) * axis[1]
                  for p in pts]
        inc = all(a < b for a, b in zip(params, params[1:]))
        dec = all(a > b for a, b in zip(params, params[1:]))
        if not (inc or dec):
            failures.append(("order", i))
            continue

        def d2(a, b):
            return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2

        gaps = [d2(pts[k], pts[k + 1]) for k in range(len(pts) - 1)]
        for k in range(len(gaps) - 1):
            if 4 * gaps[k + 1] > gaps[k]:
                failures.append(("halving", i, k))
    return failures


class TestArrangement:
    def test_seed_lines_fixed_points(self):
        # tangents to y = x**2 at s = 0, 1/4, 5/16 meet at ((s_i + s_j)/2, s_i s_j)
        arr = build_line_arrangement(3)
        assert arr.point(1, 2) == (F(1, 8), F(0))
        assert arr.point(1, 3) == (F(5, 32), F(0))
        assert arr.point(2, 3) == (F(9, 32), F(5, 64))

    @pytest.mark.parametrize("n", range(3, 41))
    def test_audit_passes(self, n):
        # the build's certificate and the independent audit both pass
        arr = build_line_arrangement(n)
        assert arrangement_ok(arr)
        assert audit_arrangement(arr) == []
        # at most 4n bits per coordinate, which rules out quadratic growth
        assert all(max(c.numerator.bit_length(), c.denominator.bit_length()) <= 4 * n
                   for i in range(1, n + 1) for j in range(i + 1, n + 1)
                   for c in arr.point(i, j))

    @pytest.mark.parametrize("n", range(3, 41))
    def test_points_are_the_closed_form(self, n):
        # p(i,j) = ((s_i + s_j)/2, s_i s_j) with s_i = (1 - 4**(1-i)) / 3,
        # in Fraction arithmetic
        s = {i: F(4 ** (i - 1) - 1, 3 * 4 ** (i - 1)) for i in range(1, n + 1)}
        arr = build_line_arrangement(n)
        assert {(i, j): arr.point(i, j) for i in s for j in s if i < j} == {
            (i, j): ((s[i] + s[j]) / 2, s[i] * s[j]) for i in s for j in s if i < j}

    def test_halving_boundary(self):
        # line 1 meets line j at x = S_j / 2D; in the closed form for n = 6,
        # S_5 - S_4 = 4 and S_6 - S_5 = 1
        arr = build_line_arrangement(6)
        s = list(arr.s)
        # the gap before p(1,6) exactly twice the one after it passes, and
        # also holds on lines 2..6
        s[5] = s[4] + 2
        tight = replace(arr, s=tuple(s))
        assert arrangement_ok(tight)
        assert audit_arrangement(tight) == []
        # one unit less than twice the next gap is rejected
        s[3] += 1
        short = replace(arr, s=tuple(s))
        assert not arrangement_ok(short)
        assert audit_arrangement(short) != []

    @pytest.mark.parametrize("broken", ["swapped", "no-halving", "merged-gap"])
    def test_broken_arrangement_rejected_by_both_checks(self, broken):
        # line 1 is y = 0 and meets line j at (S_j / 2D, 0); in the closed
        # form for n = 6, S_3 - S_2 = 64
        arr = build_line_arrangement(6)
        s = list(arr.s)
        if broken == "swapped":
            # p(1,3) and p(1,4) change places on line 1
            s[2], s[3] = s[3], s[2]
        elif broken == "no-halving":
            # still in order, but the gap after p(1,3) outgrows the one before
            s[2] = s[1] + (s[2] - s[1]) // 8
        else:
            # S_1..S_6 itself halves (gaps 256, 64, 32, 4, 1), but line 4
            # skips S_4: its gap from p(4,3) to p(4,5), 36, outgrows 64 / 2
            s[3:] = [s[2] + 32, s[2] + 36, s[2] + 37]
        arr = replace(arr, s=tuple(s))
        assert not arrangement_ok(arr)
        assert audit_arrangement(arr) != []

    def test_too_small(self):
        with pytest.raises(ConstructionError):
            build_line_arrangement(2)

    def test_failed_certificate_raises(self, monkeypatch):
        import polycontact.arrangement as arrangement
        monkeypatch.setattr(arrangement, "arrangement_ok", lambda arr: False)
        with pytest.raises(ConstructionError):
            build_line_arrangement(5)


class TestComplete:
    def test_k4_verifies(self):
        scene = represent_complete(4)
        report = verify_scene(scene)
        assert report.passed
        assert len(report.reconstructed) == 6

    def test_k5_corner_counts(self):
        scene = represent_complete(5)
        assert all(len(p.corners) == 4 for p in scene.polygons.values())

    def test_k3_degenerate(self):
        # K3's degree-2 vertices are padded with a dummy K4 and retracted:
        # each gets a triangle, where it once got a segment
        scene = represent_complete(3)
        assert "degenerate" not in scene.meta
        assert all(len(p.corners) == 3 for p in scene.polygons.values())
        report = verify_scene(scene)
        assert report.passed and not report.warnings
        assert scene.certificate.to_text() == report.to_text()

    def test_too_small(self):
        for n in (0, -1):
            with pytest.raises(ConstructionError, match="n >= 1"):
                represent_complete(n)

    @pytest.mark.parametrize("n, sha256", [
        (10, "ec8cd8874b0aa6767ea26730021fa864b5df0c25b47145fdaafb3e2db0a9256c"),
        (12, "ccaaa870d101999f7b1df834ba055ea9a3a0897cc9c5799407f01d04967e0eb4"),
    ], ids=["10", "12"])
    def test_scene_file_bytes_are_pinned(self, tmp_path, n, sha256):
        out = tmp_path / "k.json"
        assert main(["represent", "--class", "complete", "--n", str(n), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_vertical_planes(self):
        # every polygon's corners project onto its arrangement line
        scene = represent_complete(6)
        for poly in scene.polygons.values():
            cs = poly.corners
            a, b = cs[0], cs[1]
            for c in cs[2:]:
                lhs = (b[0] - a[0]) * (c[1] - a[1])
                rhs = (b[1] - a[1]) * (c[0] - a[0])
                assert lhs == rhs

    def test_unperturbed_heights(self):
        scene = represent_complete(5)
        order = scene.meta["order"]
        idx = {v: i + 1 for i, v in enumerate(order)}
        for e, p in scene.contacts.items():
            u, v = tuple(e)
            lo = min(idx[u], idx[v])
            if {idx[u], idx[v]} == {1, 2}:
                assert p[2] < lo
            else:
                assert p[2] == lo


class TestMinDegree3:
    def test_petersen(self, petersen):
        scene = represent_min_degree3(petersen)
        report = verify_scene(scene)
        assert report.passed
        assert len(report.reconstructed) == 15

    def test_k4_matches_complete(self):
        from polycontact import Graph
        g = Graph.from_edges([(str(i), str(j)) for i in range(1, 5)
                              for j in range(i + 1, 5)])
        scene = represent_min_degree3(g)
        full = represent_complete(4)
        assert scene.contacts == full.contacts
        for v in g.vertices:
            assert scene.polygons[v].corners == full.polygons[v].corners

    def test_sparse_lift_reads_one_point_per_padded_edge(self, tmp_path, monkeypatch):
        # a 200-vertex path is padded to 204 lines, and one delta lifts it:
        # the lift computes the crossing of each padded edge once, and the
        # scene file is the one the table of all C(204, 2) crossings gave
        import polycontact.arrangement as arrangement
        point, calls = arrangement.Arrangement.point, []

        def counted(arr, i, j):
            calls.append((i, j))
            return point(arr, i, j)

        monkeypatch.setattr(arrangement.Arrangement, "point", counted)
        edges = tmp_path / "path.txt"
        edges.write_text("".join(f"{i} {i + 1}\n" for i in range(199)))
        out = tmp_path / "path.json"
        assert main(["represent", "--class", "mindeg3", "--input", str(edges),
                     "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "6fb63aa9649e4f41fcd133b7cd7581cb83c1b197587996df79c301ae54b87d0d"
        padded = arrangement._pad_to_min_degree3(graph_from_edge_list(edges.read_text()))
        assert len(set(calls)) == len(calls) == len(padded.edges) == 407

    def test_low_degree_rejected(self, monkeypatch):
        # C5 is padded and certifies with triangles; strictify rejects the
        # padded lift before it verifies anything
        import polycontact.verify as verify
        c5 = graph_from_edge_list("1 2\n2 3\n3 4\n4 5\n5 1")
        scene = represent_min_degree3(c5)
        assert scene.certificate.passed
        assert all(len(p.corners) == 3 for p in scene.polygons.values())
        calls = []
        monkeypatch.setattr(verify, "verify_scene", calls.append)
        with pytest.raises(ConstructionError, match="degree < 3"):
            strictify(scene)
        assert calls == []


class TestStrictify:
    def test_strictifies_k6(self):
        scene = strictify(represent_complete(6))
        for poly in scene.polygons.values():
            assert polygon_properties(poly).strictly_convex
        assert verify_scene(scene).passed
        assert scene.certificate.to_text() == verify_scene(scene).to_text()

    def test_contact_map_preserved(self):
        base = represent_complete(5)
        out = strictify(base)
        assert set(out.contacts) == set(base.contacts)
        for e in base.contacts:
            bx, by, _ = base.contacts[e]
            ox, oy, _ = out.contacts[e]
            assert (bx, by) == (ox, oy)

    def test_idempotent_combinatorics(self):
        once = strictify(represent_complete(5))
        twice = strictify(once)
        assert set(once.contacts) == set(twice.contacts)
        for label in once.polygons:
            assert len(once.polygons[label].corners) == \
                len(twice.polygons[label].corners)


class TestCertificate:
    def test_backs_off_past_defect_away_from_lowered_polygons(self, monkeypatch):
        # only polygons 1 and 2 are lowered; at delta = 1/2 the declared
        # contact of edge 3-4 is moved, so that scene must not be returned
        import polycontact.arrangement as arrangement
        lift = arrangement._lift_scene

        def lift_with_defect(*args):
            scene = lift(*args)
            if args[-1] == F(1, 2):
                x, y, z = scene.contacts[edge_key("3", "4")]
                scene.contacts[edge_key("3", "4")] = (x, y, z + 1)
            return scene

        monkeypatch.setattr(arrangement, "_lift_scene", lift_with_defect)
        scene = represent_complete(5)
        assert scene.meta["delta"] == "1/4"
        assert scene.certificate.passed
        assert scene.certificate.to_text() == verify_scene(scene).to_text()

    def test_mutated_scene_fails_whatever_its_certificate(self):
        scene = represent_complete(5)
        poly = scene.polygons["3"]
        x, y, z = poly.corners[0]
        scene.polygons["3"] = Polygon3(corners=((x, y, z + 1),) + poly.corners[1:])
        assert scene.certificate.passed
        assert not verify_scene(scene).passed
