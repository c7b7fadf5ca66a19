import numpy as np
import pytest

import flowtopo as ft

from conftest import DEMO_EDGES


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


class TestCutsetMatrix:
    def test_identity_prefix_enforced(self):
        bad = np.array([[1, 1, -1]])
        with pytest.raises(ValueError):
            ft.CutsetMatrix(entries=bad, branch_edges=(1, 2), chord_edges=(3,))

    def test_entry_range_enforced(self):
        bad = np.array([[1, 0, 2]])
        with pytest.raises(ValueError):
            ft.CutsetMatrix(entries=bad, branch_edges=(1,), chord_edges=(2, 3))

    @pytest.mark.parametrize("entries, branches, message", [
        ([[1, 0]], (1.9,), "branch_edges must be an integer, got 1.9"),
        ([[1, -0.7]], (1,), r"cutset entries must be in \{-1, 0, \+1\}"),
        ([["a", 0]], (1,), r"cutset entries must be in \{-1, 0, \+1\}"),
        ([[1, None]], (1,), r"cutset entries must be in \{-1, 0, \+1\}"),
        ([[1, 0], [1]], (1,), r"cutset entries must be in \{-1, 0, \+1\}"),
    ], ids=["fractional-label", "fractional-entry", "string-entry", "none-entry", "ragged"])
    def test_values_the_cast_would_change_refused(self, entries, branches, message):
        # int() took label 1.9 as 1, and the int64 cast entry -0.7 as 0; it
        # raised a bare ValueError on "a" or a ragged list, TypeError on None
        with pytest.raises(ft.InvalidArgument, match=message):
            ft.CutsetMatrix(entries=entries, branch_edges=branches, chord_edges=(2,))

    @pytest.mark.parametrize("branches, chords", [((1,), (5,)), ((3,), (1,)), ((1,), (1,))])
    def test_labels_other_than_one_to_e_refused(self, branches, chords):
        # the type owns the label rule, so no consumer re-checks it
        with pytest.raises(ft.InvalidArgument, match=r"edge labels must be exactly 1\.\.2"):
            ft.CutsetMatrix(entries=[[1, -1]], branch_edges=branches, chord_edges=chords)


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
