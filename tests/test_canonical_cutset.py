import numpy as np
import pytest

import flowtopo as ft
from flowtopo.canonical_cutset import _swap_and_reduce

from conftest import (
    DEMO_CANONICAL,
    DEMO_REDUCED,
    DEMO_ZERO_TOL,
    chord_set_of_row,
    descendant_sink_labels,
    nonsingular_partitions,
    staged_cutset,
)


def demo_reduced_cutset() -> ft.CutsetMatrix:
    return ft.CutsetMatrix(
        entries=DEMO_REDUCED, branch_edges=(2, 5, 6), chord_edges=(1, 3, 4, 7, 8)
    )


def canonicalize_by_row_scan(cutset: ft.CutsetMatrix):
    """Row-at-a-time scan with canonicalize's interchange rule: the reference
    for its vectorized search of the first unsettled row.  Returns the
    entries, the column labels and the provenance."""
    entries = cutset.entries.astype(np.int64, copy=True)
    labels = list(cutset.column_labels)
    m, e = cutset.m, cutset.edge_count
    provenance = []

    def fix_row(k: int) -> bool:
        chords = entries[k, m:]
        if (chords > 0).any():
            neg = np.flatnonzero(chords == -1)
            if neg.size != 1:
                raise ft.NotUnique(
                    f"row {k} has {neg.size} negative chords alongside positive ones"
                )
            l = m + int(neg[0])
        else:
            neg = [j for j in range(m, e) if entries[k, j] == -1]
            if len(neg) != 1 or labels[neg[0]] > labels[k]:
                return False
            l = neg[0]
        outgoing, incoming = labels[k], labels[l]
        _swap_and_reduce(entries, labels, k, l)
        provenance.append((k, outgoing, incoming))
        return True

    max_swaps = 4 * m + 16
    for _ in range(max_swaps):
        if not any(fix_row(k) for k in range(m)):
            break
    else:
        raise ft.NotCanonicalizable(f"no fixed point after {max_swaps} interchanges")
    if entries[:, m:].max(initial=0) > 0:
        raise ft.NotCanonicalizable("canonical form admits no positive chord entry")
    return entries.tolist(), tuple(labels), tuple(provenance)


def scan_outcome(cutset: ft.CutsetMatrix, fn):
    """``fn``'s result in the reference's terms, or its error class and
    message."""
    try:
        out = fn(cutset)
    except ft.FlowtopoError as exc:
        return type(exc), str(exc)
    if isinstance(out, ft.CanonicalCutsetMatrix):
        out = (out.entries.tolist(), out.branch_edges + out.chord_edges, out.provenance)
    return out


def generated_data(family: str, seed: int, relabel: bool) -> ft.FlowDataMatrix:
    """Samples of a generated network; with ``relabel`` its edge labels are
    permuted, so they no longer follow the ordered-label convention."""
    net = ft.generate_within(family, seed, max_edges=160)
    data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=seed))
    perm = np.arange(net.edge_count)
    if relabel:
        perm = np.random.default_rng(seed).permutation(net.edge_count)
    return ft.FlowDataMatrix(data.entries[perm])


class TestScanMatchesRowLoop:
    def assert_same(self, cutset):
        got = scan_outcome(cutset, ft.canonicalize)
        assert got == scan_outcome(cutset, canonicalize_by_row_scan)
        return got

    @pytest.mark.parametrize("reversed_branches", [True, False])
    def test_every_demo_partition(self, demo_flows, reversed_branches):
        # the scan acts on the first unsettled row, so the row order of the
        # reduced matrix is varied too
        basis = ft.estimate_null_basis(demo_flows, zero_tol=DEMO_ZERO_TOL)
        swaps = 0
        for dep in nonsingular_partitions(basis):
            indep = tuple(j for j in range(1, 9) if j not in dep)
            if reversed_branches:
                dep = dep[::-1]
            cutset = ft.to_fcutset_form(
                basis, ft.Partition(dependent_edges=dep, independent_edges=indep)
            )
            got = self.assert_same(cutset)
            swaps += len(got[2]) if len(got) == 3 else 0
        assert swaps > 0

    @pytest.mark.parametrize("family", ft.synth.FAMILIES)
    def test_relabelled_networks(self, family):
        # the staged cutset, whose partition need not be the non-sink edges,
        # settles under any labels, on the tree the exact lane returns
        swaps = 0
        for seed in range(6):
            for relabel in (True, False):
                data = generated_data(family, seed, relabel)
                cutset = staged_cutset(ft.estimate_null_basis(data))
                swaps += len(self.assert_same(cutset)[2])
                realized = ft.realize_topology(ft.canonicalize(cutset))
                assert set(realized.edges) == set(ft.reconstruct(data).edges)
        assert swaps > 0


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
        assert isinstance(first, ft.CutsetMatrix)
        again = ft.canonicalize(first)
        assert again.provenance == ()
        assert np.array_equal(again.entries, first.entries)
        assert again.column_labels == first.column_labels

    def test_star_row_untouched(self):
        cut = ft.CutsetMatrix(
            entries=np.array([[1, -1, -1]]), branch_edges=(1,), chord_edges=(2, 3)
        )
        canon = ft.canonicalize(cut)
        assert canon.provenance == ()
        assert canon.branch_edges == (1,)

    def test_constructor_rejects_positive_chord(self):
        with pytest.raises(ValueError):
            ft.CanonicalCutsetMatrix(
                entries=np.array([[1, 0, 1]]), branch_edges=(1,), chord_edges=(2, 3)
            )

    def test_constructor_runs_the_cutset_checks(self):
        with pytest.raises(ft.InvalidArgument, match="identity"):
            ft.CanonicalCutsetMatrix(
                entries=np.array([[0, 0, -1]]), branch_edges=(1,), chord_edges=(2, 3)
            )


def fcutset_by_incidence(net: ft.FlowNetwork, branches: tuple[int, ...]) -> ft.CutsetMatrix:
    """Fundamental-cutset matrix ``[I | C]`` of ``net`` for a spanning tree
    of its conservation graph, as ``A_T⁻¹·A`` on the reduced incidence
    matrix ``A`` (Deo, Graph Theory with Applications to Engineering, 1974,
    ch. 7).  Chords follow in ascending label order."""
    row_of = {v: i for i, v in enumerate(net.internal_nodes)}
    incidence = np.zeros((len(row_of), net.edge_count))
    for j, (s, t) in enumerate(net.edges):
        if s in row_of:
            incidence[row_of[s], j] = -1
        if t in row_of:
            incidence[row_of[t], j] = 1
    tree = incidence[:, [b - 1 for b in branches]]
    # incidence matrices are totally unimodular: |det| is 1 on a spanning
    # tree and 0 on any other branch set
    assert round(abs(np.linalg.det(tree))) == 1, f"{branches} is not a spanning tree"
    chords = tuple(lab for lab in range(1, net.edge_count + 1) if lab not in branches)
    cols = [lab - 1 for lab in branches + chords]
    return ft.CutsetMatrix(np.rint(np.linalg.solve(tree, incidence[:, cols])), branches, chords)


class TestStructureLawsOnGeneratedTrees:
    """Chord sets of a canonicalized truth cutset must equal descendant
    sink sets read straight off the generating tree."""

    @pytest.mark.parametrize("family", ft.synth.FAMILIES)
    @pytest.mark.parametrize("seed", [1, 2, 3, 11])
    def test_chords_are_descendant_sinks(self, family, seed):
        net = ft.generate_within(family, seed, max_edges=160)
        sinks = set(net.sink_edge_labels())
        branches = tuple(lab for lab in range(1, net.edge_count + 1) if lab not in sinks)
        canon = ft.canonicalize(fcutset_by_incidence(net, branches))
        for row, branch in enumerate(canon.branch_edges):
            assert chord_set_of_row(canon, row) == descendant_sink_labels(net, branch)
