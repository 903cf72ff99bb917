"""Inequality graph data structure tests."""

from repro.core.graph import (
    Edge,
    InequalityGraph,
    Node,
    const_node,
    len_node,
    var_node,
)


class TestNodes:
    def test_var_node_identity(self):
        assert var_node("x") == var_node("x")
        assert var_node("x") != var_node("y")

    def test_len_node_distinct_from_var(self):
        assert len_node("a") != var_node("a")

    def test_const_node_identity(self):
        assert const_node(3) == const_node(3)
        assert const_node(3) != const_node(4)

    def test_str_forms(self):
        assert str(var_node("x.2")) == "x.2"
        assert str(len_node("a.0")) == "len(a.0)"
        assert str(const_node(-1)) == "-1"

    def test_hash_is_the_field_tuple_hash(self):
        """The hash a frozen dataclass with these fields had: set and dict
        orders, and so proof search and certificate bytes, stay put."""
        node = var_node("i.1")
        assert hash(node) == hash(("var", "i.1", 0))
        assert hash(const_node(-4)) == hash(("const", "", -4))
        edge = Edge(node, len_node("a.0"), -1, "b1")
        assert hash(edge) == hash((node, len_node("a.0"), -1, "b1"))
        assert hash(Edge(node, node, 0)) == hash((node, node, 0, None))

    def test_repr_text(self):
        assert repr(var_node("i.1")) == "Node(kind='var', name='i.1', value=0)"
        assert repr(const_node(3)) == "Node(kind='const', name='', value=3)"
        edge = Edge(var_node("i.1"), len_node("a.0"), -1, "b1")
        assert repr(edge) == (
            "Edge(source=Node(kind='var', name='i.1', value=0), "
            "target=Node(kind='len', name='a.0', value=0), weight=-1, block='b1')"
        )
        assert str(edge) == "len(a.0) <= i.1 + -1"

    def test_replace_derives_a_variant(self):
        edge = Edge(var_node("i.1"), len_node("a.0"), -1, "b1")
        tighter = edge._replace(weight=-2)
        assert tighter == Edge(var_node("i.1"), len_node("a.0"), -2, "b1")
        assert edge.weight == -1


class TestEdges:
    def test_add_and_query_in_edges(self):
        graph = InequalityGraph()
        graph.add_edge(var_node("u"), var_node("v"), -1, "b1")
        edges = graph.in_edges(var_node("v"))
        assert len(edges) == 1
        assert edges[0].source == var_node("u")
        assert edges[0].weight == -1
        assert edges[0].block == "b1"

    def test_parallel_edges_keep_strongest(self):
        graph = InequalityGraph()
        graph.add_edge(var_node("u"), var_node("v"), 5)
        graph.add_edge(var_node("u"), var_node("v"), 2)
        graph.add_edge(var_node("u"), var_node("v"), 7)
        edges = graph.in_edges(var_node("v"))
        assert len(edges) == 1
        assert edges[0].weight == 2

    def test_has_predecessors(self):
        graph = InequalityGraph()
        graph.add_edge(var_node("u"), var_node("v"), 0)
        assert graph.has_predecessors(var_node("v"))
        assert not graph.has_predecessors(var_node("u"))

    def test_phi_marking(self):
        graph = InequalityGraph()
        graph.mark_phi(var_node("p"))
        assert graph.is_phi(var_node("p"))
        assert not graph.is_phi(var_node("q"))

    def test_nodes_enumeration(self):
        graph = InequalityGraph()
        graph.add_edge(len_node("a"), var_node("x"), -1)
        graph.mark_phi(var_node("p"))
        names = {str(n) for n in graph.nodes()}
        assert names == {"len(a)", "x", "p"}


class TestConstantCompletion:
    def test_descending_virtual_edge_exists(self):
        graph = InequalityGraph()
        # Anchor const 10 with a real in-edge.
        graph.add_edge(len_node("a"), const_node(10), 0)
        edges = graph.in_edges(const_node(5))
        virtual = [e for e in edges if e.source == const_node(10)]
        assert len(virtual) == 1
        assert virtual[0].weight == 5 - 10

    def test_no_ascending_virtual_edge(self):
        graph = InequalityGraph()
        graph.add_edge(len_node("a"), const_node(10), 0)
        edges = graph.in_edges(const_node(20))
        assert all(e.source != const_node(10) for e in edges)

    def test_unanchored_consts_offer_no_edges(self):
        graph = InequalityGraph()
        graph.add_edge(const_node(10), var_node("x"), 0)  # 10 is a source only
        assert graph.in_edges(const_node(5)) == []

    def test_lower_graph_negated_const_values(self):
        graph = InequalityGraph("lower")
        assert graph.const_value(const_node(5)) == -5
        assert graph.const_value(const_node(0)) == 0
        # In negated space, 0 is "larger" than 5, so the virtual edge goes
        # from an anchored 0 down to 5.
        graph.add_edge(len_node("a"), const_node(0), 0)
        edges = graph.in_edges(const_node(5))
        virtual = [e for e in edges if e.source == const_node(0)]
        assert len(virtual) == 1
        assert virtual[0].weight == -5  # cv(5) - cv(0) = -5 - 0

    def test_completion_is_acyclic(self):
        graph = InequalityGraph()
        graph.add_edge(len_node("a"), const_node(10), 0)
        graph.add_edge(len_node("b"), const_node(7), 0)
        # 10 -> 7 exists; 7 -> 10 must not (ascending).
        assert any(e.source == const_node(10) for e in graph.in_edges(const_node(7)))
        assert not any(
            e.source == const_node(7) for e in graph.in_edges(const_node(10))
        )


class TestDot:
    def test_dot_output_contains_nodes_and_weights(self):
        graph = InequalityGraph()
        graph.add_edge(len_node("a"), var_node("x"), -1)
        graph.mark_phi(var_node("x"))
        dot = graph.to_dot()
        assert "len(a)" in dot
        assert '"x"' in dot
        assert 'label="-1"' in dot
        assert "doublecircle" in dot  # φ node styling
