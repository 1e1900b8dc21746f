"""Graphs, hypergraphs, parsing and the built-in block systems."""

import pytest

from polycontact import (InputError, SteinerDescriptor, blocks_from_text,
                         builtin_descriptor, builtin_system,
                         graph_from_edge_list, validate_steiner)
from polycontact.core import components


class TestEdgeList:
    def test_triangle(self):
        g = graph_from_edge_list("1 2\n2 3\n1 3")
        assert g.vertices == ("1", "2", "3")
        assert len(g.edges) == 3

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="self-loop"):
            graph_from_edge_list("a a")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputError, match="line 3"):
            graph_from_edge_list("a b\nb c\nb a")

    def test_comments_and_blanks(self):
        g = graph_from_edge_list("# header\n1 2\n\n2 3  # tail\n")
        assert len(g.edges) == 2

    def test_parse_error_reports_line(self):
        with pytest.raises(InputError, match="line 2"):
            graph_from_edge_list("1 2\n1 2 3")

    def test_petersen_is_cubic(self, petersen):
        assert petersen.n == 10
        assert len(petersen.edges) == 15
        assert petersen.is_regular(3)

    def test_equality_independent_of_order(self):
        g1 = graph_from_edge_list("1 2\n2 3")
        g2 = graph_from_edge_list("3 2\n2 1")
        assert g1.edges == g2.edges
        assert set(g1.vertices) == set(g2.vertices)

    def test_adjacency_cache_leaves_identity_alone(self):
        g1 = graph_from_edge_list("1 2\n2 3\n3 1\n3 4")
        g2 = graph_from_edge_list("1 2\n2 3\n3 1\n3 4")
        nbrs = g1.neighbors("3")
        assert nbrs == ["1", "2", "4"] and g1.degree("3") == 3
        nbrs.append("5")  # callers get a fresh list each time
        assert g1.neighbors("3") == ["1", "2", "4"]
        assert g1.degree("x") == 0 and g1.neighbors("x") == []
        assert g1 == g2 and hash(g1) == hash(g2)
        assert repr(g1) == repr(g2)


class TestComponents:
    def test_first_vertex_order(self):
        g = graph_from_edge_list("c d\na b\nd e\nf g")
        nbrs = {v: g.neighbors(v) for v in g.vertices}
        order = ["b", "f", "x", "e", "a", "c", "d", "g"]
        nbrs["x"] = []
        assert components(order, nbrs.__getitem__) == [
            frozenset("ab"), frozenset("fg"), frozenset("x"), frozenset("cde")]

    def test_is_connected(self):
        assert graph_from_edge_list("").is_connected()
        assert graph_from_edge_list("a b\nb c").is_connected()
        assert not graph_from_edge_list("a b\nc d").is_connected()


class TestBuiltinSystems:
    @pytest.mark.parametrize("name", ["S237", "S239", "S348", "S3410", "PG3"])
    def test_builtin_validates(self, name):
        h = builtin_system(name)
        ok, witness = validate_steiner(h, builtin_descriptor(name))
        assert ok, witness

    def test_s237_blocks(self):
        h = builtin_system("S237")
        blocks = {frozenset(b) for b in h.blocks}
        assert len(blocks) == 7
        for b in ({"1", "2", "3"}, {"2", "4", "6"}, {"3", "6", "7"}):
            assert frozenset(b) in blocks

    def test_s3410_counts(self):
        h = builtin_system("S3410")
        assert len(h.blocks) == 30 and h.n == 10
        blocks = {frozenset(b) for b in h.blocks}
        assert frozenset("1245") in blocks
        assert frozenset({"2", "5", "8", "0"}) in blocks

    def test_s348_counts(self):
        h = builtin_system("S348")
        assert len(h.blocks) == 14 and h.n == 8

    def test_pg3_shape(self):
        h = builtin_system("PG3")
        assert len(h.blocks) == 13
        assert all(len(b) == 4 for b in h.blocks)
        blocks = {frozenset(b) for b in h.blocks}
        assert frozenset("ABCD") in blocks
        assert frozenset({"A", "1", "2", "3"}) in blocks
        # the literal label "0" never appears in PG3 (it belongs to S3410)
        assert "0" not in h.vertices

    def test_unknown_name(self):
        with pytest.raises(InputError, match="unknown system"):
            builtin_system("S2525")

    def test_broken_fano_gives_witness(self):
        h = builtin_system("S237")
        smaller = [sorted(b) for b in h.blocks if b != frozenset("123")]
        h2 = blocks_from_text("\n".join(" ".join(b) for b in smaller))
        ok, witness = validate_steiner(
            h2.__class__(vertices=h.vertices, blocks=h2.blocks),
            SteinerDescriptor(2, 3, 7))
        assert not ok
        assert set(witness) <= {"1", "2", "3"}

    def test_descriptor_invariants(self):
        with pytest.raises(InputError):
            SteinerDescriptor(3, 3, 7)
