"""Squares of cycles: unit squares (rhombi at n = 12) for even n, relaxed
split quadrilaterals for odd n."""

import functools
import hashlib
import math
from math import sqrt
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from polycontact import (ConstructionError, cycle_square_graph,
                         represent_cycle_square, scene_to_json, verify_scene)
from polycontact import cyclesq
from polycontact.cyclesq import _ring_winding
from polycontact.geom import vcross, vdot, vsub
from polycontact.sceneio import _dumps


def edge_lengths(poly):
    cs = poly.corners
    return [math.dist(cs[i], cs[(i + 1) % len(cs)]) for i in range(len(cs))]


class TestGraph:
    def test_c6_squared(self):
        g = cycle_square_graph(6)
        assert g.n == 6 and len(g.edges) == 12
        assert g.is_regular(4)

    def test_c7_squared(self):
        g = cycle_square_graph(7)
        assert len(g.edges) == 14


class TestEven:
    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_unit_squares(self, n):
        scene = represent_cycle_square(n)
        report = verify_scene(scene)
        assert report.passed, report.to_text()
        assert len(report.reconstructed) == 2 * n
        for poly in scene.polygons.values():
            for length in edge_lengths(poly):
                assert abs(length - 1.0) <= 1e-9
            cs = poly.corners
            assert abs(math.dist(cs[0], cs[2]) - math.sqrt(2)) <= 1e-9
            assert abs(math.dist(cs[1], cs[3]) - math.sqrt(2)) <= 1e-9

    def test_h6_value(self):
        scene = represent_cycle_square(6)
        assert abs(scene.meta["ring_height"] - math.sqrt(2.0 / 3.0)) <= 1e-9
        zs = sorted({round(float(c[2]), 9) for p in scene.polygons.values()
                     for c in p.corners})
        h = round(math.sqrt(2.0 / 3.0), 9)
        assert zs == [-h, 0.0, h]

    def test_rings(self):
        scene = represent_cycle_square(8)
        mid = [p for e, p in scene.contacts.items()
               if abs(p[2]) <= 1e-12]
        assert len(mid) == 8
        r = {round(math.hypot(p[0], p[1]), 9) for p in mid}
        assert len(r) == 1  # regular ring

    def test_n12_degenerates(self):
        # the symmetric square layout still has no admissible winding ...
        assert _ring_winding(12) is None
        # ... so the scene returned instead is made of unit-sided rhombi
        scene = represent_cycle_square(12)
        assert scene.meta["shape"] == "rhombus"
        report = verify_scene(scene)
        assert report.passed, report.to_text()
        for poly in scene.polygons.values():
            for length in edge_lengths(poly):
                assert abs(length - 1.0) <= 1e-9

    def test_n12_rhombi(self):
        scene = represent_cycle_square(12)
        assert verify_scene(scene).passed
        assert scene.meta["min_dihedral_deg"] >= 5.0
        assert scene.meta["residual"] <= 1e-12
        diagonals = [math.dist(p.corners[k], p.corners[k + 2])
                     for p in scene.polygons.values() for k in range(2)]
        defect = max(abs(d - math.sqrt(2)) for d in diagonals)
        assert defect == pytest.approx(scene.meta["max_diagonal_defect"])
        assert defect > 1e-3  # rhombi, not squares

    def test_too_small(self):
        with pytest.raises(ConstructionError):
            represent_cycle_square(4)
        with pytest.raises(ConstructionError, match="complete graph"):
            represent_cycle_square(5)


class TestOdd:
    @pytest.mark.parametrize("n", [7, 9, 11])
    def test_valid_scene(self, n):
        scene = represent_cycle_square(n)
        report = verify_scene(scene)
        assert report.passed, report.to_text()
        assert len(report.reconstructed) == 2 * n

    @pytest.mark.parametrize("n", [7, 9, 11])
    def test_edge_bounds(self, n):
        scene = represent_cycle_square(n)
        lens = [l for p in scene.polygons.values() for l in edge_lengths(p)]
        assert max(lens) < 2.0
        assert max(lens) / min(lens) <= 3.0

    def test_n7_short_edge(self):
        scene = represent_cycle_square(7)
        lens = [l for p in scene.polygons.values() for l in edge_lengths(p)]
        assert min(lens) > 0.69

    @pytest.mark.parametrize("n", [7, 9, 11])
    def test_strictly_convex(self, n):
        from polycontact import polygon_properties
        scene = represent_cycle_square(n)
        for poly in scene.polygons.values():
            assert polygon_properties(poly).strictly_convex

    @pytest.mark.parametrize("n", [9, 11])
    def test_unit_squares_away_from_split(self, n):
        scene = represent_cycle_square(n)
        r = (scene.meta["relaxed_polygons"] - 1) // 2
        kept = range(r + 1, n - r)  # outside the new polygon n and r a side
        assert len(kept) > 0
        base = represent_cycle_square(n - 1)
        for i in kept:
            poly = scene.polygons[str(i)]
            assert poly.corners == base.polygons[str(i)].corners
            for length in edge_lengths(poly):
                assert abs(length - 1.0) <= 1e-9

    @pytest.mark.parametrize("n", [7, 9, 11])
    def test_shortest_edge_is_unit(self, n):
        scene = represent_cycle_square(n)
        lens = [l for p in scene.polygons.values() for l in edge_lengths(p)]
        assert min(lens) >= 1.0 - 1e-9
        assert max(lens) <= 1.5 + 1e-9
        assert scene.meta["shortest_edge"] == pytest.approx(min(lens))
        assert scene.meta["residual"] <= 1e-12

    def test_deterministic(self):
        first = scene_to_json(represent_cycle_square(9))
        assert scene_to_json(represent_cycle_square(9)) == first


# sha256 of each scene's JSON text, and the steps of the relaxation that
# built it (for odd n, of the split that certified).  The same on every
# supported Python: every float sum in `cyclesq` adds left to right.
SCENES = {
    6: ("2135ec919502ff5e629e905c452db3afd39cf848961c0527b7a5bbaaa1900978", 0),
    7: ("ae4f98a7133c41b2eb300a5e855b24345ba0c1f8971e5ea854bb11b8115d85b5", 41),
    8: ("78daa314aaf3f39777f420cda8dd9ba86d12651486e305983f49e8a1ad0135e4", 0),
    9: ("849200ac16a045351ccf4d8ac87c033ef4ed62cc48fa0cf22f8658305e73e1dc", 25),
    10: ("f04d48e4e91e717c631bd6af8e2439388290b2470b8eccc7e9c27fdf44e7716c", 0),
    11: ("bfa82853088a71eb9b0a2c5c1e33d5e899803f1224972972a4134230866e146e", 23),
    12: ("157744baa027084faa7750060632d21763ed7a37f18d9e20bc8ab5a2d0661259", 6),
    13: ("f8e76acfd4b46f802c0266cd9fcb2058e98364ba2e3a0284176df15a2bdedd0f", 47),
}


class TestPinned:
    @pytest.mark.parametrize("n", sorted(SCENES))
    def test_scene_bytes_and_iterations(self, n):
        sha256, iterations = SCENES[n]
        scene = represent_cycle_square(n)
        assert scene.meta["iterations"] == iterations
        text = _dumps(scene_to_json(scene))
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


class TestFailClosed:
    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    def test_verified_or_rejected_by_size(self, n):
        try:
            scene = represent_cycle_square(n)
        except ConstructionError as exc:
            assert n >= 14, exc  # README: every n from 6 to 13 certifies
            assert f"n={n}:" in str(exc)
        else:
            report = verify_scene(scene)
            assert report.passed, report.to_text()
            assert scene.meta["n"] == n


# The relaxation as first written, kept as a reference: every row's value
# and full gradient rebuilt at every trial point, a turn's normal per
# corner, a dense Gram matrix, and every sum one left-to-right loop.

def plain_sum(terms):
    """0.0 + t0 + t1 + ..., one rounding per term: what sum() of floats
    does up to Python 3.11 (from 3.12 it compensates)."""
    total = 0.0
    for t in terms:
        total += t
    return total


def ref_side_row(p, a, b, target):
    d = vsub(p[a], p[b])
    length = sqrt(vdot(d, d))
    g = (d[0] / length, d[1] / length, d[2] / length)
    return length - target, {a: g, b: (-g[0], -g[1], -g[2])}


def ref_plane_row(p, c):
    a = p[c[0]]
    u, v, w = vsub(p[c[1]], a), vsub(p[c[2]], a), vsub(p[c[3]], a)
    gu, gv, gw = vcross(v, w), vcross(w, u), vcross(u, v)
    ga = tuple(-(gu[x] + gv[x] + gw[x]) for x in range(3))
    return vdot(u, gu), {c[0]: ga, c[1]: gu, c[2]: gv, c[3]: gw}


def ref_turn_row(p, c, k):
    a, b, d, e = (p[c[(k + s) % 4]] for s in (-1, 0, 1, 2))
    normal = vcross(vsub(d, a), vsub(e, b))
    size = sqrt(vdot(normal, normal))
    unit = (normal[0] / size, normal[1] / size, normal[2] / size)
    u, v = vsub(b, a), vsub(d, b)
    gu, gv = vcross(v, unit), vcross(unit, u)
    return vdot(vcross(u, v), unit), {
        c[k - 1]: (-gu[0], -gu[1], -gu[2]),
        c[k]: (gu[0] - gv[0], gu[1] - gv[1], gu[2] - gv[2]),
        c[(k + 1) % 4]: gv}


def ref_square_rows(p, quads, free):
    out = [ref_plane_row(p, c) for c in quads]
    for c in quads:
        out.extend(ref_side_row(p, c[k - 1], c[k], 1.0) for k in range(4))
    return out


def ref_split_rows(p, quads, free):
    lo, hi = cyclesq._EDGE_RANGE
    out = []
    for c in quads:
        out.append(ref_plane_row(p, c))
        for k in range(4):
            if c[k - 1] in free or c[k] in free:
                side = ref_side_row(p, c[k - 1], c[k], lo)
                if side[0] < 0:
                    out.append(side)
                elif side[0] > hi - lo:
                    out.append((side[0] - (hi - lo), side[1]))
            turn = ref_turn_row(p, c, k)
            if turn[0] < cyclesq._TURN_MARGIN:
                out.append((turn[0] - cyclesq._TURN_MARGIN, turn[1]))
    return out


REFERENCE_ROWS = {cyclesq._square_rows: ref_square_rows,
                  cyclesq._split_rows: ref_split_rows}


def ref_relax(pts, free, rows_fn):
    def evaluate(p):
        rows = [(v, {k: g for k, g in grads.items() if k in free})
                for v, grads in rows_fn(p)]
        return rows, plain_sum(v * v for v, _ in rows)

    rows, cost = evaluate(pts)
    for steps in range(cyclesq._MAX_STEPS + 1):
        residual = max((abs(v) for v, _ in rows), default=0.0)
        if residual <= cyclesq._TOL or steps == cyclesq._MAX_STEPS:
            return steps, residual
        step = ref_min_norm_step(rows)
        scale = 1.0
        while True:
            trial = dict(pts)
            for k, s in step.items():
                q = pts[k]
                trial[k] = (q[0] + scale * s[0], q[1] + scale * s[1],
                            q[2] + scale * s[2])
            trial_rows, trial_cost = evaluate(trial)
            if trial_cost < cost:
                break
            scale /= 2
            if scale < 1e-4:
                return steps, residual
        pts.update(trial)
        rows, cost = trial_rows, trial_cost


def ref_min_norm_step(rows, total=plain_sum):
    size = len(rows)
    gram = [[0.0] * size for _ in range(size)]
    for i, (_, gi) in enumerate(rows):
        for j in range(i + 1):
            gj = rows[j][1]
            s = total(vdot(g, gj[k]) for k, g in gi.items() if k in gj)
            gram[i][j] = gram[j][i] = s
        gram[i][i] += cyclesq._RIDGE
    y = ref_cholesky_solve(gram, [v for v, _ in rows], total)
    step = {}
    for (_, grads), yi in zip(rows, y):
        for k, g in grads.items():
            s = step.setdefault(k, [0.0, 0.0, 0.0])
            for a in range(3):
                s[a] -= yi * g[a]
    return step


def ref_cholesky_solve(a, b, total=plain_sum):
    size = len(b)
    low = [[0.0] * size for _ in range(size)]
    for i in range(size):
        li = low[i]
        for j in range(i + 1):
            lj = low[j]
            s = a[i][j] - total(li[t] * lj[t] for t in range(j))
            li[j] = sqrt(max(s, cyclesq._RIDGE)) if i == j else s / lj[j]
    y = [0.0] * size
    for i in range(size):
        y[i] = (b[i] - total(low[i][t] * y[t] for t in range(i))) / low[i][i]
    for i in reversed(range(size)):
        y[i] = (y[i] - total(low[t][i] * y[t]
                             for t in range(i + 1, size))) / low[i][i]
    return y


def lower(a):
    """Row i of symmetric `a` as `_cholesky_solve` takes it: columns up
    to the diagonal, from the first nonzero one."""
    return [row[next(j for j, x in enumerate(row) if x):i + 1]
            for i, row in enumerate(a)]


def bits(x):
    """Floats, in (nested) tuples, lists and dicts, as their exact hex
    strings, so equality is float for float and tells -0.0 from 0.0.  A
    float subclass (`cyclesq._ZERO`'s) is its type, which no float equals."""
    if isinstance(x, float):
        return x.hex() if type(x) is float else type(x)
    if isinstance(x, int):
        return x
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    return tuple(bits(v) for v in x)


def relaxations(n):
    """Every `_relax` call building the layouts of n, every split radius of
    an odd n included: (start, free, rows_fn, quads, end, steps, residual)."""
    calls = []
    real = cyclesq._relax

    def recording(pts, free, rows_fn, quads):
        start = dict(pts)
        steps, residual = real(pts, free, rows_fn, quads)
        calls.append((start, free, rows_fn, quads, dict(pts), steps, residual))
        return steps, residual

    with mock.patch.object(cyclesq, "_relax", recording):
        if n % 2 == 0:
            cyclesq._even_layout(n)
        else:
            list(cyclesq._odd_layouts(n))
    return calls


def assert_matches_reference(start, free, rows_fn, quads):
    """The relaxation from `start` equals the reference float for float:
    the rows and step there, then the points, steps and residual."""
    rows = [(v, grad(free, *args)) for v, grad, args in rows_fn(start, quads, free)]
    ref_rows = [(v, {k: g for k, g in grads.items() if k in free})
                for v, grads in REFERENCE_ROWS[rows_fn](start, quads, free)]
    assert bits(rows) == bits(ref_rows)
    assert bits(cyclesq._min_norm_step(rows)) == bits(ref_min_norm_step(ref_rows))
    pts, ref = dict(start), dict(start)
    got = cyclesq._relax(pts, free, rows_fn, quads)
    want = ref_relax(ref, free, lambda p: REFERENCE_ROWS[rows_fn](p, quads, free))
    assert bits(got) == bits(want)
    assert bits(pts) == bits(ref)


class TestRelaxationReference:
    """The relaxation against the reference above, float for float."""

    @pytest.mark.parametrize("n", range(6, 14))
    def test_layouts(self, n):
        calls = relaxations(n)
        # even: one relaxation; odd: the even base, then radii 2, 3 and 4
        assert len(calls) == (1 if n % 2 == 0 else 4)
        for start, free, rows_fn, quads, end, steps, residual in calls:
            ref = dict(start)
            want = ref_relax(ref, free,
                             lambda p: REFERENCE_ROWS[rows_fn](p, quads, free))
            assert bits((steps, residual)) == bits(want)
            assert bits(end) == bits(ref)

    def test_cholesky(self):
        gram = [[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]]
        b = [1.0, -2.0, 0.5]
        assert bits(cyclesq._cholesky_solve(lower(gram), b)) == bits(
            ref_cholesky_solve(gram, b))

    def test_cholesky_adds_left_to_right(self):
        # row 3's forward sum is 1e16 + 1 - 1e16: 0.0 added left to right,
        # 1.0 compensated (sum() from Python 3.12 on)
        gram = [[1.0, 0.0, 0.0, 1e8], [0.0, 1.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 1e8], [1e8, 1.0, 1e8, 3e16]]
        b = [1e8, 1.0, -1e8, 0.0]
        want = ref_cholesky_solve(gram, b)
        assert bits(ref_cholesky_solve(gram, b, math.fsum)) != bits(want)
        assert bits(cyclesq._cholesky_solve(lower(gram), b)) == bits(want)

    def test_gram_adds_left_to_right(self):
        # the rows' Gram entry is 1e16 + 1 - 1e16; row 0 alone moves "d",
        # by its y, which is zero exactly when that entry is
        rows = [(0.0, {"a": (1e8, 0.0, 0.0), "b": (1.0, 0.0, 0.0),
                       "c": (1e8, 0.0, 0.0), "d": (1.0, 0.0, 0.0)}),
                (1.0, {"a": (1e8, 0.0, 0.0), "b": (1.0, 0.0, 0.0),
                       "c": (-1e8, 0.0, 0.0)})]
        want = ref_min_norm_step(rows)
        assert bits(ref_min_norm_step(rows, math.fsum)) != bits(want)
        assert bits(cyclesq._min_norm_step(rows)) == bits(want)

    # no shrinking: a failing example takes well under a second to find, but
    # shrinking the relaxation's float draws runs for minutes
    @settings(phases=[p for p in Phase if p is not Phase.shrink])
    @given(st.sampled_from([7, 9, 11]), st.data())
    def test_perturbed_starts(self, n, data):
        start, free, rows_fn, quads = split_start(n)
        offset = st.floats(-0.05, 0.05, allow_subnormal=False)
        pts = dict(start)
        for k in sorted(free):
            d = data.draw(st.tuples(offset, offset, offset))
            pts[k] = (pts[k][0] + d[0], pts[k][1] + d[1], pts[k][2] + d[2])
        assert_matches_reference(pts, free, rows_fn, quads)


@functools.lru_cache(maxsize=None)
def split_start(n):
    """(start, free, rows_fn, quads) of the radius-2 split of odd n."""
    return relaxations(n)[1][:4]
