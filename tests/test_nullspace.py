import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

import flowtopo as ft
from flowtopo.nullspace import (
    DEFAULT_ZERO_TOL,
    EXACT_ZERO_TOL,
    PIVOT_THRESHOLD,
    RANK_TOL,
    ZERO_TOL_FLOOR,
    cutset_from_factor,
    rref,
    sink_cutset,
    snap_signed_units,
    triangular_solve,
)

from conftest import (
    DEMO_CANONICAL,
    DEMO_EDGES,
    DEMO_REDUCED,
    DEMO_TABLE,
    DEMO_ZERO_TOL,
    nonsingular_partitions,
    staged_cutset,
)


def rref_by_rows(matrix: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Row-at-a-time elimination with rref's pivot rule: the reference for
    its vectorized update, which does the same arithmetic."""
    work = np.asarray(matrix, dtype=np.float64).copy()
    m, e = work.shape
    floor = RANK_TOL * np.abs(work).max(initial=0.0)
    pivots, row = [], 0
    for col in range(e):
        if row == m:
            break
        rest = np.abs(work[row:, col:])
        r = row + int(np.argmax(rest[:, 0]))
        if abs(work[r, col]) <= max(PIVOT_THRESHOLD * rest.max(), floor):
            continue
        if r != row:
            work[[row, r]] = work[[r, row]]
        work[row] /= work[row, col]
        for other in range(m):
            if other != row and work[other, col] != 0.0:
                work[other] -= work[other, col] * work[row]
        pivots.append(col)
        row += 1
    return work, tuple(pivots)


def thin_svd_basis(data: ft.FlowDataMatrix, zero_tol: float = DEFAULT_ZERO_TOL):
    """The estimate from a thin SVD of the samples themselves, with the same
    rank rule: the reference for the QR-first route's m, singular values and
    null space."""
    e = data.edge_count
    u, s, _ = np.linalg.svd(data.entries, full_matrices=data.sample_count < e)
    sv = np.zeros(e)
    sv[: s.shape[0]] = s
    m = int(np.count_nonzero(sv <= zero_tol * sv[0]))
    return u[:, e - m :].T, sv


def assert_matches_thin_svd(data: ft.FlowDataMatrix) -> None:
    reference, ref_sv = thin_svd_basis(data)
    basis = ft.estimate_null_basis(data)
    assert basis.m == reference.shape[0]
    np.testing.assert_allclose(basis.singular_values, ref_sv, rtol=0, atol=1e-10 * ref_sv[0])
    # the bases may differ by a rotation; their projectors may not
    np.testing.assert_allclose(
        basis.basis.T @ basis.basis, reference.T @ reference, rtol=0, atol=1e-10
    )


def star_data(n_s: int = 8, seed: int = 0) -> ft.FlowDataMatrix:
    rng = np.random.default_rng(seed)
    x2 = rng.uniform(5.0, 15.0, n_s)
    x3 = rng.uniform(5.0, 15.0, n_s)
    return ft.FlowDataMatrix(np.vstack([x2 + x3, x2, x3]))


class TestFlowDataMatrix:
    def test_undersampled_rejected(self):
        with pytest.raises(ValueError):
            ft.FlowDataMatrix(np.ones((3, 3)))

    def test_undersampled_flag_warns(self):
        with pytest.warns(UserWarning):
            ft.FlowDataMatrix(np.ones((3, 3)), allow_undersampled=True)

    def test_undersampled_warning_names_the_caller(self):
        net = ft.binary_network_with_edges(14)
        with pytest.warns(UserWarning, match="samples for") as record:
            ft.FlowDataMatrix(np.ones((3, 3)), allow_undersampled=True)
            ft.sample_flows(net, ft.FlowSamplerConfig(n_s=5, seed=0), allow_undersampled=True)
        assert len(record) == 2
        assert {w.filename for w in record} == {__file__}

    @pytest.mark.parametrize("allow_undersampled", [False, True])
    def test_no_edge_rows_rejected(self, allow_undersampled):
        # before, the exact lane raised a bare ValueError, the noisy one an IndexError
        with pytest.raises(ft.InvalidArgument, match="at least one edge row"):
            ft.FlowDataMatrix(np.ones((0, 5)), allow_undersampled=allow_undersampled)

    def test_float64_array_kept_others_copied(self):
        # a float64 array is kept and frozen; other real dtypes become a copy
        samples = np.ones((2, 5))
        assert ft.FlowDataMatrix(samples).entries is samples
        assert not samples.flags.writeable
        counts = np.ones((2, 5), dtype=np.int32)
        entries = ft.FlowDataMatrix(counts).entries
        assert entries.dtype == np.float64 and not entries.flags.writeable
        assert counts.flags.writeable

    def test_default_labels(self):
        d = ft.FlowDataMatrix(np.ones((2, 5)))
        assert d.edge_count == 2
        assert d.sample_count == 5


class TestEstimateNullBasis:
    def test_star_single_law(self):
        basis = ft.estimate_null_basis(star_data())
        assert basis.estimated_rank_deficiency == 1
        assert basis.basis.shape == (1, 3)
        row = basis.basis[0] / basis.basis[0, 0]
        assert np.allclose(row, [1.0, -1.0, -1.0], atol=1e-9)

    def test_singular_values_descending(self):
        basis = ft.estimate_null_basis(star_data())
        sv = basis.singular_values
        assert len(sv) == 3
        assert all(a >= b for a, b in zip(sv, sv[1:]))

    def test_fewer_samples_than_edges(self):
        # one sample of three edges: two padded zero singular values
        with pytest.warns(UserWarning):
            data = ft.FlowDataMatrix(star_data().entries[:, :1], allow_undersampled=True)
        basis = ft.estimate_null_basis(data)
        assert basis.basis.shape == (2, 3)
        assert np.allclose(basis.basis @ data.entries, 0.0, atol=1e-9)

    @pytest.mark.parametrize("family", ft.synth.FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_thin_svd(self, family, seed):
        net = ft.generate_within(family, 700 + seed, max_edges=150)
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=seed))
        assert_matches_thin_svd(data)

    def test_matches_thin_svd_with_fewer_samples_than_edges(self):
        net = ft.generate_within("binary", 701, max_edges=150)
        cfg = ft.FlowSamplerConfig(n_s=net.edge_count // 3, seed=2)
        with pytest.warns(UserWarning):
            data = ft.sample_flows(net, cfg, allow_undersampled=True)
        assert_matches_thin_svd(data)

    def test_unstructured_data_raises(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ft.RankZero):
            ft.estimate_null_basis(ft.FlowDataMatrix(rng.standard_normal((5, 20))))

    def test_zero_matrix_raises(self):
        with pytest.raises(ft.FullDeficiency):
            ft.estimate_null_basis(ft.FlowDataMatrix(np.zeros((3, 6))))

    def test_zero_tol_validated(self):
        with pytest.raises(ValueError):
            ft.estimate_null_basis(star_data(), zero_tol=0.0)

    @pytest.mark.parametrize("zero_tol", [1.0, 5.0, np.inf])
    def test_zero_tol_of_one_or_more_refused(self, zero_tol):
        # every singular value would count as zero: m = e, a "null basis"
        # spanning the whole edge space
        net = ft.binary_network_with_edges(14)
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=28, seed=0))
        message = rf"zero_tol must lie in \(0, 1\), got {zero_tol}"
        with pytest.raises(ft.InvalidArgument, match=message):
            ft.estimate_null_basis(data, zero_tol=zero_tol)

    def test_quantized_demo_needs_loose_tol(self, demo_flows):
        # three-decimal data: the strict default sees full rank
        with pytest.raises(ft.RankZero):
            ft.estimate_null_basis(demo_flows, zero_tol=DEFAULT_ZERO_TOL)
        basis = ft.estimate_null_basis(demo_flows, zero_tol=DEMO_ZERO_TOL)
        assert basis.estimated_rank_deficiency == 3

    def test_basis_annihilates_data(self, demo_flows):
        basis = ft.estimate_null_basis(demo_flows, zero_tol=DEMO_ZERO_TOL)
        residual = basis.basis @ demo_flows.entries
        assert np.abs(residual).max() < 5e-3


class TestPartition:
    @pytest.mark.parametrize("label", [2.7, "a"])
    def test_labels_must_be_integers(self, label):
        # int() took 2.7 as edge 2 and raised a bare ValueError on "a"
        with pytest.raises(ft.InvalidArgument, match="dependent_edges must be an integer"):
            ft.Partition((label,), (1,))

    def test_demo_partition_is_nonsingular(self, demo_flows):
        basis = ft.estimate_null_basis(demo_flows, zero_tol=DEMO_ZERO_TOL)
        part = ft.find_valid_partition(basis)
        assert len(part.dependent_edges) == 3
        assert part.dependent_edges in nonsingular_partitions(basis)

    def test_demo_partition_reduces_to_hand_checked_form(self, demo_flows):
        basis = ft.estimate_null_basis(demo_flows, zero_tol=DEMO_ZERO_TOL)
        part = ft.find_valid_partition(basis)
        assert part.dependent_edges == (2, 5, 6)
        assert part.independent_edges == (1, 3, 4, 7, 8)
        cut = ft.to_fcutset_form(basis, part)
        assert np.array_equal(cut.entries, DEMO_REDUCED)
        canon = ft.canonicalize(cut)
        assert np.array_equal(canon.entries, DEMO_CANONICAL)
        assert canon.provenance == ((0, 2, 1), (1, 5, 2))
        assert set(ft.realize_topology(canon).edges) == DEMO_EDGES

    def test_rank_deficient_rows_rejected(self):
        rows = np.array([[1.0, -1.0, 0.0], [2.0, -2.0, 0.0]])
        with pytest.raises(ft.NoValidPartition):
            ft.find_valid_partition(ft.NullBasis(rows, 2, np.ones(3)))

    def test_column_skipped_under_threshold_is_revisited(self):
        # rref's scan passes column 1 under its threshold and comes out one
        # pivot short; column pivoting looks at every column's residual
        rows = np.array([[0.05, 1.0, 1.0], [0.1, 1.0, 1.0]])
        assert rref(rows)[1] == (1,)
        basis = ft.NullBasis(rows, 2, np.ones(3))
        part = ft.find_valid_partition(basis)
        assert part.dependent_edges == (1, 2)
        assert part.independent_edges == (3,)
        assert ft.to_fcutset_form(basis, part).entries.tolist() == [[1, 0, 0], [0, 1, 1]]

    def test_labels_cover_edge_set(self, demo_flows):
        basis = ft.estimate_null_basis(demo_flows, zero_tol=DEMO_ZERO_TOL)
        part = ft.find_valid_partition(basis)
        assert sorted(part.dependent_edges + part.independent_edges) == list(range(1, 9))

    def test_reduction_matches_frozen_matrix(self, demo_flows):
        basis = ft.estimate_null_basis(demo_flows, zero_tol=DEMO_ZERO_TOL)
        part = ft.Partition(dependent_edges=(2, 5, 6), independent_edges=(1, 3, 4, 7, 8))
        cut = ft.to_fcutset_form(basis, part)
        assert cut.branch_edges == (2, 5, 6)
        assert cut.chord_edges == (1, 3, 4, 7, 8)
        assert np.array_equal(cut.entries, DEMO_REDUCED)

    def test_every_valid_partition_reduces_to_signed_units(self, demo_flows):
        # uniqueness in practice: any invertible column choice snaps cleanly
        basis = ft.estimate_null_basis(demo_flows, zero_tol=DEMO_ZERO_TOL)
        parts = nonsingular_partitions(basis)
        assert len(parts) > 10
        for dep in parts:
            indep = tuple(j for j in range(1, 9) if j not in dep)
            cut = ft.to_fcutset_form(
                basis, ft.Partition(dependent_edges=dep, independent_edges=indep)
            )
            assert np.isin(cut.entries, (-1, 0, 1)).all()

    def test_mismatched_partition_rejected(self, demo_flows):
        basis = ft.estimate_null_basis(demo_flows, zero_tol=DEMO_ZERO_TOL)
        with pytest.raises(ft.NoValidPartition):
            ft.to_fcutset_form(
                basis,
                ft.Partition(dependent_edges=(1, 2), independent_edges=(3, 4, 5, 6, 7, 8)),
            )

    def test_singular_dependent_block_rejected(self):
        basis = ft.NullBasis(
            basis=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            estimated_rank_deficiency=2,
            singular_values=np.array([1.0, 1.0, 0.0]),
        )
        with pytest.raises(ft.NoValidPartition):
            ft.to_fcutset_form(
                basis, ft.Partition(dependent_edges=(1, 3), independent_edges=(2,))
            )

    def test_non_integer_reduction_rejected(self):
        basis = ft.NullBasis(
            basis=np.array([[1.0, 0.5]]),
            estimated_rank_deficiency=1,
            singular_values=np.array([1.0, 0.0]),
        )
        with pytest.raises(ft.NonIntegerCutset):
            ft.to_fcutset_form(
                basis, ft.Partition(dependent_edges=(1,), independent_edges=(2,))
            )


class TestSnapAndRref:
    def test_snap_within_band(self):
        vals = np.array([[0.97, -0.02, -1.12], [0.0, 1.0, -1.0]])
        out = snap_signed_units(vals, band=0.35, error_cls=ft.SnapFailure)
        assert out.tolist() == [[1, 0, -1], [0, 1, -1]]

    def test_snap_beyond_band(self):
        with pytest.raises(ft.SnapFailure):
            snap_signed_units(np.array([[0.5]]), band=0.35, error_cls=ft.SnapFailure)

    @pytest.mark.parametrize("band, error_cls", [
        (0.1, ft.NonIntegerCutset), (0.35, ft.SnapFailure),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_snap_refuses_non_finite(self, band, error_cls, bad):
        # a NaN is no farther than any band by comparison, and would cast
        # to the smallest int64
        with pytest.raises(error_cls, match="not finite"):
            snap_signed_units(np.array([[bad, 1.0]]), band=band, error_cls=error_cls)

    def test_snap_custom_error_class(self):
        with pytest.raises(ft.NonIntegerCutset):
            snap_signed_units(np.array([[2.4]]), band=0.35, error_cls=ft.NonIntegerCutset)

    def test_rref_recovers_identity_prefix(self):
        mat = np.array([[2.0, 0.0, -2.0, 2.0], [0.0, -1.0, 1.0, 1.0]])
        red, pivots = rref(mat)
        assert pivots == (0, 1)
        assert np.allclose(red[:, :2], np.eye(2))

    def test_rref_skips_dependent_column(self):
        mat = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0]])
        red, pivots = rref(mat)
        assert pivots == (0, 2)
        assert np.allclose(red[:, 1], [2.0, 0.0])

    def test_rref_skips_small_pivot_on_demo_basis(self, demo_flows):
        # column 3 is nearly dependent on columns 1-2 in the quantized basis;
        # pivoting on it would amplify the rounding noise past any snap band
        basis = ft.estimate_null_basis(demo_flows, zero_tol=DEMO_ZERO_TOL)
        red, pivots = rref(basis.basis)
        assert pivots == (0, 1, 5)
        assert np.abs(red).max() < 1.5

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_rref_matches_row_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        net = ft.generate_within(ft.synth.FAMILIES[seed % 3], seed, max_edges=120)
        exact = ft.estimate_null_basis(
            ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=seed))
        ).basis
        for mat in (exact, rng.standard_normal((4, 9)), rng.integers(-1, 2, (3, 6))):
            red, pivots = rref(mat)
            ref, ref_pivots = rref_by_rows(mat)
            assert pivots == ref_pivots
            assert np.array_equal(red, ref)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rref_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.integers(-1, 2, size=(3, 6)).astype(float)
        red, pivots = rref(mat)
        again, pivots2 = rref(red)
        assert pivots2 == pivots
        assert np.allclose(again, red, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_snap_fixed_point_on_integers(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.integers(-1, 2, size=(3, 5))
        out = snap_signed_units(mat.astype(float), band=0.35, error_cls=ft.SnapFailure)
        assert np.array_equal(out, mat)


def by_label(canon: ft.CanonicalCutsetMatrix) -> tuple:
    """Branches, chords and entries with rows and chord columns in label
    order."""
    m = canon.m
    rows = np.argsort(canon.branch_edges)
    cols = m + np.argsort(canon.chord_edges)
    return (
        sorted(canon.branch_edges),
        sorted(canon.chord_edges),
        canon.entries[rows][:, np.concatenate([rows, cols])].tolist(),
    )


class TestSinkCutset:
    @pytest.mark.parametrize("family", ft.synth.FAMILIES)
    def test_matches_reduction_and_canonicalize(self, family):
        # the stages the exact lane replaced give the same canonical matrix
        for seed in range(6):
            net = ft.generate_within(family, 200 + seed, max_edges=120)
            data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=seed))
            canon, norms = sink_cutset(data)
            basis = ft.estimate_null_basis(data)
            staged = ft.canonicalize(staged_cutset(basis))
            assert by_label(canon) == by_label(staged)
            assert canon.provenance == ()
            assert canon.branch_edges == tuple(sorted(canon.branch_edges))
            assert np.count_nonzero(norms <= EXACT_ZERO_TOL * norms[0]) == basis.m

    def test_demo_table_at_loose_tol(self, demo_flows):
        canon, _ = sink_cutset(demo_flows, zero_tol=DEMO_ZERO_TOL)
        assert canon.branch_edges == (1, 2, 6)
        assert canon.chord_edges == (3, 4, 5, 7, 8)
        assert ft.realize_topology(canon).diagnostics["chain_groups"] == ()

    def test_full_rank_data_raises(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ft.RankZero):
            sink_cutset(ft.FlowDataMatrix(rng.uniform(1.0, 2.0, (4, 20))))

    def test_fractional_share_raises(self):
        u, v = np.random.default_rng(2).uniform(50.0, 60.0, (2, 20))
        with pytest.raises(ft.NonIntegerCutset, match="band"):
            sink_cutset(ft.FlowDataMatrix(np.vstack([u, v, 0.5 * u + 0.5 * v])))

    def test_share_beyond_the_band_names_edge_and_sink(self):
        # a non-sink edge's row scaled by 1.12 draws 1.12 of every sink
        # flow below it, 0.12 off 1: the message names the edge and a sink
        net = ft.generate_within("binary", 900, max_edges=120)
        cfg = ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=900)
        x = ft.sample_flows(net, cfg).entries.copy()
        sinks = set(net.sink_edge_labels())
        edge = max(set(range(1, net.edge_count + 1)) - sinks)
        below, frontier = set(), [net.edges[edge - 1][1]]
        while frontier:
            node = frontier.pop()
            for k, (s, t) in enumerate(net.edges, start=1):
                if s == node:
                    below.add(k)
                    frontier.append(t)
        x[edge - 1] *= 1.12
        with pytest.raises(ft.NonIntegerCutset) as refused:
            ft.reconstruct(ft.FlowDataMatrix(x))
        match = re.fullmatch(
            rf"edge {edge} draws a share \+1\.1200 of sink flow (\d+), which is 0\.1200 from the "
            r"nearest of -1/0/\+1, beyond the 0\.1 band",
            str(refused.value),
        )
        assert match, str(refused.value)
        assert int(match.group(1)) in below & sinks

    def test_negative_share_raises(self):
        # four rows around a parallelogram: one is a signed sum of the others
        u, v, w = np.random.default_rng(0).uniform(50.0, 60.0, (3, 20)) * [[2.0], [0.5], [2.0]]
        with pytest.raises(ft.NonIntegerCutset, match="negative share"):
            sink_cutset(ft.FlowDataMatrix(np.vstack([u, v, w, u + w - v])))

    @pytest.mark.parametrize("noisy", [False, True], ids=["exact", "noisy"])
    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_the_share_farthest_from_0_or_1_is_named(self, noisy, scale):
        # edge 4 draws -1 of sink flow 2, the share farthest from 0 or 1; a
        # scale of 0.7 on sink flow 1 puts a second share outside the exact
        # band, the one a rounding to the nearest of -1/0/+1 would name
        rng = np.random.default_rng(0)
        u, v, w = rng.uniform(50.0, 60.0, (3, 400)) * [[2.0], [0.5], [2.0]]
        x = np.vstack([u, v, w, scale * u + w - v, u + v])
        if noisy:
            x = x + rng.normal(0.0, 0.01, x.shape)
        noise = ft.NoiseModel.isotropic(1e-4, 5) if noisy else None
        with pytest.raises((ft.SnapFailure, ft.NonIntegerCutset)) as refused:
            ft.reconstruct(ft.FlowDataMatrix(x), noise)
        match = re.fullmatch(
            r"edge 4 draws a negative share (\S+) of sink flow 2", str(refused.value)
        )
        assert match and abs(float(match.group(1)) + 1.0) < 0.01, str(refused.value)

    @pytest.mark.parametrize("row", [np.zeros(8), -np.ones(8)])
    def test_nonpositive_flow_raises(self, row):
        x = star_data().entries.copy()
        x[1] = row
        with pytest.raises(ft.NonPositiveFlow, match="edge 2"):
            sink_cutset(ft.FlowDataMatrix(x))

    def test_total_past_the_float_range_refused(self):
        # each entry is finite, but an edge's total overflows: summing it
        # warned, and the unit-total scaling by 1/inf failed in LAPACK
        x = star_data().entries
        x = x / x.max() * 1.7e308
        with pytest.raises(ft.InvalidArgument, match="sums past the float range"):
            sink_cutset(ft.FlowDataMatrix(x))

    def test_zero_tol_validated(self):
        with pytest.raises(ft.InvalidArgument):
            sink_cutset(star_data(), zero_tol=0.0)

    @pytest.mark.parametrize("zero_tol", [1e-10, 0.99 * ZERO_TOL_FLOOR, 1.0, np.nan])
    def test_zero_tol_outside_gram_resolution_rejected(self, zero_tol):
        # a spurious pivot of the Gram matrix sits near sqrt(eps) of the
        # first, so a smaller cutoff would count rounding as rank; it is
        # refused, not clamped
        with pytest.raises(ft.InvalidArgument, match="zero_tol"):
            sink_cutset(star_data(), zero_tol=zero_tol)

    def test_zero_tol_at_floor_accepted(self):
        canon, _ = sink_cutset(star_data(), zero_tol=ZERO_TOL_FLOOR)
        assert canon.m == 1

    @pytest.mark.parametrize("spread", [1e-4, 1e-6])
    def test_nearly_equal_sink_flows_never_give_a_wrong_tree(self, spread):
        # the Gram matrix squares the condition number: sink flows that vary
        # by less than about 1e-5 of their mean look equal to the lane and
        # may fail to snap, but never come back as another tree
        net = ft.FlowNetwork(6, ((6, 1), (1, 2), (2, 3), (2, 4), (1, 5)))
        for seed in range(5):
            u, v, w = 10.0 * (1 + spread * np.random.default_rng(seed).standard_normal((3, 12)))
            data = ft.FlowDataMatrix(np.vstack([u + v + w, u + v, u, v, w]))
            try:
                result = ft.reconstruct_exact(data)
            except ft.FlowtopoError:
                assert spread < 1e-5
                continue
            assert ft.verify_against_truth(result, net)

    def test_one_gram_factorization_no_pivoted_qr(self, monkeypatch):
        real, calls = sla.lapack.dpstrf, []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(sla.lapack, "dpstrf", counted)
        monkeypatch.setattr(sla, "qr", lambda *a, **k: pytest.fail("pivoted QR called"))
        data = ft.sample_flows(
            ft.binary_network_with_edges(30), ft.FlowSamplerConfig(n_s=60, seed=2)
        )
        ft.reconstruct_exact(data)
        assert calls == [(30, 30)]

    def test_every_magnitude_recovers_the_same_tree(self):
        # the raw Gram product overflows past about 1e150 and underflows
        # below about 1e-150; rows rescaled by powers of two recover both
        net = ft.binary_network_with_edges(30)
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=60, seed=0))
        want = ft.reconstruct_exact(data).edges
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(-300, 301):
                result = ft.reconstruct_exact(ft.FlowDataMatrix(data.entries * 10.0**k))
                assert result.edges == want, k
                assert ft.verify_against_truth(result, net), k

    def test_samples_are_not_copied(self):
        # the unit-total Gram matrix comes from the raw one: no e x n_s
        # array of scaled rows is made
        net = ft.binary_network_with_edges(254)
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=50 * net.edge_count, seed=0))
        ft.reconstruct_exact(data)
        tracemalloc.start()
        try:
            result = ft.reconstruct_exact(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ft.verify_against_truth(result, net)
        assert peak < data.entries.nbytes / 10, (peak, data.entries.nbytes)


def test_demo_pipeline_reaches_truth(demo_flows, demo_truth):
    result = ft.reconstruct_exact(demo_flows, zero_tol=DEMO_ZERO_TOL)
    assert set(result.edges) == DEMO_EDGES
    assert ft.verify_against_truth(result, demo_truth)


class TestSolveLower:
    @pytest.mark.parametrize("lower", [0, 1])
    def test_same_bits_as_solve_triangular(self, lower):
        rng = np.random.default_rng(3)
        tri = np.tril if lower else np.triu
        a = np.asfortranarray(tri(rng.standard_normal((6, 6))) + 4 * np.eye(6))
        b = rng.standard_normal((6, 5))
        want = sla.solve_triangular(a, b, lower=bool(lower))
        assert np.array_equal(triangular_solve(a, b, lower=bool(lower)), want)

    def test_singular_message_is_scipys(self):
        a = np.asfortranarray(np.tril(np.ones((3, 3))))
        a[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError) as scipy_error:
            sla.solve_triangular(a, np.ones((3, 2)), lower=True)
        with pytest.raises(np.linalg.LinAlgError, match=re.escape(str(scipy_error.value))):
            triangular_solve(a, np.ones((3, 2)))

    def test_singular_factor_in_cutset_from_factor(self):
        # a zero on R11's diagonal: the solve refuses with scipy's message
        r = np.array([[1.0, 0.5, 0.5], [0.0, 0.0, 0.5]])
        with pytest.raises(np.linalg.LinAlgError, match="resolution failed at diagonal 1"):
            cutset_from_factor(r, np.arange(3), 2, np.ones(3), 0.1, ft.NonIntegerCutset)


def seat_chains_by_loop(t: np.ndarray, sinks: np.ndarray, others: np.ndarray):
    """One swap at a time, row by row: the reference for the vectorized
    seating of each sink-ended chain's largest label."""
    sinks, others = sinks.copy(), others.copy()
    single = np.flatnonzero(t.sum(axis=1) == 1)
    for row, i in zip(single.tolist(), t[single].argmax(axis=1).tolist()):
        if others[row] > sinks[i]:
            others[row], sinks[i] = sinks[i], others[row]
    return sinks, others


class TestCutsetFromShares:
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    # two chains end in sinks labelled below them: both seats change hands
    @example(m=3, k=2, seed=0)
    def test_chain_seating_matches_the_loop(self, m, k, seed):
        # most rows are unit rows, so several chains end in one sink
        rng = np.random.default_rng(seed)
        t = rng.integers(0, 2, size=(m, k))
        unit = rng.random(m) < 0.7
        t[unit] = 0
        t[unit, rng.integers(0, k, size=int(unit.sum()))] = 1
        perm = rng.permutation(m + k)
        given_perm = perm.copy()
        r = np.hstack([np.eye(k), t.T.astype(np.float64)])
        canon = cutset_from_factor(r, perm, k, np.ones(m + k), 0.1, ft.NonIntegerCutset)
        # the seating swaps labels in arrays of its own, not in the caller's
        assert np.array_equal(perm, given_perm)
        sinks, others = seat_chains_by_loop(t, perm[:k], perm[k:])
        rows, cols = np.argsort(others), np.argsort(sinks)
        assert canon.branch_edges == tuple((others[rows] + 1).tolist())
        assert canon.chord_edges == tuple((sinks[cols] + 1).tolist())
        assert np.array_equal(canon.entries[:, m:], -t[rows][:, cols])

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.sampled_from([(0.1, ft.NonIntegerCutset), (0.35, ft.SnapFailure)]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_in_band_shares_are_always_canonical(self, m, k, lane, seed):
        # 0/1 shares within the band snap to T, and [I | -T] on labels that
        # split 1..e is canonical: no lane needs a guard around building it
        band, error_cls = lane
        rng = np.random.default_rng(seed)
        t = rng.integers(0, 2, size=(m, k))
        shares = t + rng.uniform(-0.99 * band, 0.99 * band, size=t.shape)
        perm = rng.permutation(m + k)
        # with unit totals, W = R11^-1 R12 of [I | shares^T] is the shares
        r = np.hstack([np.eye(k), shares.T])
        canon = cutset_from_factor(r, perm, k, np.ones(m + k), band, error_cls)
        assert isinstance(canon, ft.CanonicalCutsetMatrix)
        assert canon.provenance == ()
        assert canon.m == m
        assert sorted(canon.column_labels) == list(range(1, m + k + 1))
        assert list(canon.branch_edges) == sorted(canon.branch_edges)
        assert list(canon.chord_edges) == sorted(canon.chord_edges)
        assert -canon.entries[:, m:].sum() == t.sum()
