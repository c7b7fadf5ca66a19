import numpy as np
import pytest

import flowtopo as ft

from conftest import DEMO_EDGES


def test_environment_node_id():
    assert ft.ENVIRONMENT == 0


class TestFlowNetwork:
    def test_rejects_bad_node_ids(self):
        with pytest.raises(ValueError):
            ft.FlowNetwork(2, ((1, 3),))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            ft.FlowNetwork(2, ((1, 1),))

    def test_rejects_empty_edge_list(self):
        with pytest.raises(ValueError):
            ft.FlowNetwork(2, ())

    def test_boundary_classification(self, mesh_network):
        assert mesh_network.source_nodes == {7, 8}
        assert mesh_network.sink_nodes == {4, 6}
        assert set(mesh_network.internal_nodes) == {1, 2, 3, 5}

    def test_sink_edge_labels(self, demo_truth):
        assert set(demo_truth.sink_edge_labels()) == {3, 4, 5, 7, 8}


class TestConservationGraph:
    def test_star_reduced_incidence(self, star_network):
        cg = ft.build_conservation_graph(star_network)
        assert cg.internal_nodes == (1,)
        assert cg.m == 1
        air = ft.reduced_incidence_matrix(cg)
        assert air.entries.tolist() == [[1, -1, -1]]

    def test_mesh_balances_hand_flow(self, mesh_network):
        cg = ft.build_conservation_graph(mesh_network)
        air = ft.reduced_incidence_matrix(cg)
        assert air.entries.shape == (4, 9)
        # hand-propagated conserved assignment
        x = np.array([8.0, 1.0, 6.0, 2.0, 5.0, 3.0, 3.0, 4.0, 6.0])
        assert np.array_equal(air.entries @ x, np.zeros(4))
        assert np.linalg.matrix_rank(air.entries) == 4

    def test_merging_keeps_edge_order(self, mesh_network):
        cg = ft.build_conservation_graph(mesh_network)
        assert cg.edge_count == mesh_network.edge_count
        # first edge ran 1 -> sink 4, so its merged head is the environment
        assert cg.edges[0] == (1, 0)
        assert cg.edges[4] == (0, 1)

    def test_parallel_environment_edges_allowed(self):
        net = ft.FlowNetwork(4, ((2, 1), (3, 1), (1, 4)))
        cg = ft.build_conservation_graph(net)
        assert cg.edges.count((0, 1)) == 2
        air = ft.reduced_incidence_matrix(cg)
        assert air.entries.tolist() == [[1, 1, -1]]

    def test_no_internal_nodes(self):
        with pytest.raises(ft.NoInternalNodes):
            ft.build_conservation_graph(ft.FlowNetwork(2, ((1, 2),)))

    def test_disconnected_internal_component(self):
        net = ft.FlowNetwork(6, ((1, 2), (2, 1), (3, 4), (4, 5), (5, 6)))
        with pytest.raises(ft.DisconnectedNetwork):
            ft.build_conservation_graph(net)


class TestCutsetMatrix:
    def test_identity_prefix_enforced(self):
        bad = np.array([[1, 1, -1]])
        with pytest.raises(ValueError):
            ft.CutsetMatrix(entries=bad, branch_edges=(1, 2), chord_edges=(3,))

    def test_entry_range_enforced(self):
        bad = np.array([[1, 0, 2]])
        with pytest.raises(ValueError):
            ft.CutsetMatrix(entries=bad, branch_edges=(1,), chord_edges=(2, 3))

    def test_fcutset_row_space_matches_incidence(self, mesh_network):
        cg = ft.build_conservation_graph(mesh_network)
        air = ft.reduced_incidence_matrix(cg)
        cut = ft.fcutset_matrix(cg, branches=(5, 6, 4, 7))
        assert cut.entries.shape == (4, 9)
        # scatter back to natural edge order, then compare row spaces
        natural = np.zeros((4, 9))
        for col, label in enumerate(cut.column_labels):
            natural[:, label - 1] = cut.entries[:, col]
        stacked = np.vstack([air.entries, natural])
        assert np.linalg.matrix_rank(stacked) == 4

    def test_fcutset_requires_spanning_tree(self, mesh_network):
        cg = ft.build_conservation_graph(mesh_network)
        with pytest.raises(ft.NotASpanningTree):
            ft.fcutset_matrix(cg, branches=(1, 2, 3, 4))


class TestArborescence:
    def test_star_is_arborescence(self, star_network):
        assert ft.is_arborescence(star_network)

    def test_mesh_is_not(self, mesh_network):
        assert not ft.is_arborescence(mesh_network)

    def test_demo_truth_is(self, demo_truth):
        assert ft.is_arborescence(demo_truth)

    def test_reversed_edge_breaks_it(self):
        net = ft.FlowNetwork(4, ((2, 1), (3, 1), (1, 4)))
        assert not ft.is_arborescence(net)

    @pytest.mark.parametrize("edges", [
        ((1, 2), (3, 4)),                  # two roots
        ((1, 2), (1, 3), (2, 4), (3, 4)),  # node 4 entered twice
        ((1, 2), (3, 4), (4, 3)),          # a cycle the root cannot reach
    ], ids=["two_roots", "entered_twice", "unreachable_cycle"])
    def test_not_a_tree(self, edges):
        net = ft.FlowNetwork(4, edges)
        assert not ft.is_arborescence(net)
        with pytest.raises(ft.NotArborescence):
            ft.sample_flows(net, ft.FlowSamplerConfig(n_s=20, seed=0))

    def test_relabel_star(self, star_network):
        conv = ft.to_label_convention(star_network)
        assert conv.edges == ((4, 1), (1, 2), (1, 3))

    def test_relabel_fixed_point(self, demo_truth):
        conv = ft.to_label_convention(demo_truth)
        assert set(conv.edges) == DEMO_EDGES
