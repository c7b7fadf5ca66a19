import numpy as np
import pytest

import flowtopo as ft

from conftest import (
    DEMO_CANONICAL,
    DEMO_REDUCED,
    chord_set_of_row,
    descendant_sink_labels,
)


def demo_reduced_cutset() -> ft.CutsetMatrix:
    return ft.CutsetMatrix(
        entries=DEMO_REDUCED, branch_edges=(2, 5, 6), chord_edges=(1, 3, 4, 7, 8)
    )


class TestUniqueSignEdge:
    def test_positive_among_negatives(self):
        assert ft.unique_sign_edge([1, -1, -1, 0]) == 1

    def test_negative_among_positives(self):
        assert ft.unique_sign_edge([1, 1, -1, 1]) == 3

    def test_two_entry_row_prefers_smaller_label(self):
        assert ft.unique_sign_edge([0, 1, -1], labels=(4, 9, 2)) == 2

    def test_no_unique_sign(self):
        with pytest.raises(ft.NotUnique):
            ft.unique_sign_edge([1, 1, -1, -1])

    def test_empty_row(self):
        with pytest.raises(ft.NotUnique):
            ft.unique_sign_edge([0, 0, 0])

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            ft.unique_sign_edge([2, 0, 1])


class TestCanonicalize:
    def test_demo_matrix(self):
        canon = ft.canonicalize(demo_reduced_cutset())
        assert canon.branch_edges == (1, 2, 6)
        assert canon.chord_edges == (5, 3, 4, 7, 8)
        assert np.array_equal(canon.entries, DEMO_CANONICAL)

    def test_demo_provenance(self):
        canon = ft.canonicalize(demo_reduced_cutset())
        assert canon.provenance == ((0, 2, 1), (1, 5, 2))

    def test_no_positive_chords(self):
        canon = ft.canonicalize(demo_reduced_cutset())
        m = canon.m
        assert canon.entries[:, m:].max() <= 0

    def test_already_canonical_is_fixed_point(self):
        first = ft.canonicalize(demo_reduced_cutset())
        again = ft.canonicalize(first.inner)
        assert again.provenance == ()
        assert np.array_equal(again.entries, first.entries)
        assert again.branch_edges == first.branch_edges

    def test_star_row_untouched(self):
        cut = ft.CutsetMatrix(
            entries=np.array([[1, -1, -1]]), branch_edges=(1,), chord_edges=(2, 3)
        )
        canon = ft.canonicalize(cut)
        assert canon.provenance == ()
        assert canon.branch_edges == (1,)

    def test_constructor_rejects_positive_chord(self):
        inner = ft.CutsetMatrix(
            entries=np.array([[1, 0, 1]]), branch_edges=(1,), chord_edges=(2, 3)
        )
        with pytest.raises(ValueError):
            ft.CanonicalCutsetMatrix(inner=inner)


class TestStructureLawsOnGeneratedTrees:
    """Chord sets of a canonicalized truth cutset must equal descendant
    sink sets read straight off the generating tree."""

    @pytest.mark.parametrize("family", ft.synth.FAMILIES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chords_are_descendant_sinks(self, family, seed):
        net = ft.generate_within(family, seed, max_edges=160)
        cg = ft.build_conservation_graph(net)
        sinks = set(net.sink_edge_labels())
        branches = tuple(lab for lab in range(1, net.edge_count + 1) if lab not in sinks)
        canon = ft.canonicalize(ft.fcutset_matrix(cg, branches))
        for row, branch in enumerate(canon.branch_edges):
            assert chord_set_of_row(canon, row) == descendant_sink_labels(net, branch)

    @pytest.mark.parametrize("family", ft.synth.FAMILIES)
    def test_each_row_sign_unique_at_branch(self, family):
        net = ft.generate_within(family, 11, max_edges=160)
        cg = ft.build_conservation_graph(net)
        sinks = set(net.sink_edge_labels())
        branches = tuple(lab for lab in range(1, net.edge_count + 1) if lab not in sinks)
        canon = ft.canonicalize(ft.fcutset_matrix(cg, branches))
        labels = canon.branch_edges + canon.chord_edges
        for row, branch in enumerate(canon.branch_edges):
            assert ft.unique_sign_edge(canon.entries[row], labels) == branch
