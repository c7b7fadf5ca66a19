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


def canonicalize_by_row_scan(cutset: ft.CutsetMatrix, normalize_labels: bool = True):
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
        elif normalize_labels:
            below = [j for j in range(m, e) if entries[k, j] == -1 and labels[j] < labels[k]]
            if not below:
                return False
            l = min(below, key=lambda j: labels[j])
        else:
            return False
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


def scan_outcome(cutset: ft.CutsetMatrix, normalize_labels: bool, fn):
    """``fn``'s result in the reference's terms, or its error class and
    message."""
    try:
        out = fn(cutset, normalize_labels)
    except ft.FlowtopoError as exc:
        return type(exc), str(exc)
    if isinstance(out, ft.CanonicalCutsetMatrix):
        out = (out.entries.tolist(), out.branch_edges + out.chord_edges, out.provenance)
    return out


def relabelled_cutset(family: str, seed: int) -> ft.CutsetMatrix:
    """Staged-route cutset of a generated network whose edge labels were
    permuted, so its partition is not the non-sink edges."""
    net = ft.generate_within(family, seed, max_edges=160)
    data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=seed))
    perm = np.random.default_rng(seed).permutation(net.edge_count)
    basis = ft.estimate_null_basis(ft.FlowDataMatrix(data.entries[perm]))
    return staged_cutset(basis)


class TestScanMatchesRowLoop:
    def assert_same(self, cutset, normalize_labels):
        got = scan_outcome(cutset, normalize_labels, ft.canonicalize)
        assert got == scan_outcome(cutset, normalize_labels, canonicalize_by_row_scan)
        return got

    @pytest.mark.parametrize("normalize_labels", [True, False])
    def test_every_demo_partition(self, demo_flows, normalize_labels):
        basis = ft.estimate_null_basis(demo_flows, zero_tol=DEMO_ZERO_TOL)
        swaps = 0
        for dep in nonsingular_partitions(basis):
            indep = tuple(j for j in range(1, 9) if j not in dep)
            cutset = ft.to_fcutset_form(
                basis, ft.Partition(dependent_edges=dep, independent_edges=indep)
            )
            got = self.assert_same(cutset, normalize_labels)
            swaps += len(got[2]) if len(got) == 3 else 0
        assert swaps > 0

    @pytest.mark.parametrize("family", ft.synth.FAMILIES)
    def test_relabelled_networks(self, family):
        outcomes = set()
        for seed in range(6):
            cutset = relabelled_cutset(family, seed)
            for normalize_labels in (True, False):
                got = self.assert_same(cutset, normalize_labels)
                outcomes.add(got[0] if len(got) == 2 else len(got[2]) > 0)
        assert True in outcomes


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
    @pytest.mark.parametrize("seed", [1, 2, 3, 11])
    def test_chords_are_descendant_sinks(self, family, seed):
        net = ft.generate_within(family, seed, max_edges=160)
        cg = ft.build_conservation_graph(net)
        sinks = set(net.sink_edge_labels())
        branches = tuple(lab for lab in range(1, net.edge_count + 1) if lab not in sinks)
        canon = ft.canonicalize(ft.fcutset_matrix(cg, branches))
        for row, branch in enumerate(canon.branch_edges):
            assert chord_set_of_row(canon, row) == descendant_sink_labels(net, branch)
