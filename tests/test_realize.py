import numpy as np
import pytest

import flowtopo as ft

from conftest import DEMO_CANONICAL, DEMO_EDGES, DEMO_ZERO_TOL


def canon_from(entries, branches, chords) -> ft.CanonicalCutsetMatrix:
    inner = ft.CutsetMatrix(
        entries=np.asarray(entries), branch_edges=branches, chord_edges=chords
    )
    return ft.CanonicalCutsetMatrix(inner=inner)


def realize_by_row_loop(canon: ft.CanonicalCutsetMatrix, chain_policy: str = "row_order"):
    """Set-by-set nesting search: the reference for realize_topology's
    vectorized one.  Returns the edge tuple."""
    m, e = canon.m, canon.edge_count
    if m == 0 or e == m:
        raise ft.NotArborescence("need at least one branch and one chord")
    entries = canon.entries
    chord_labels = canon.chord_edges
    chord_sets = [
        frozenset(chord_labels[int(c)] for c in np.flatnonzero(entries[k, m:] == -1))
        for k in range(m)
    ]
    order = sorted(range(m), key=lambda k: (-len(chord_sets[k]), canon.branch_edges[k]))
    branches = [canon.branch_edges[k] for k in order]
    sets = [chord_sets[k] for k in order]
    sorted_entries = entries[order]
    if not sets[0]:
        raise ft.NotArborescence("largest cutset row carries no sink edge")
    x_e = branches + list(chord_labels)
    src = [e + 1] * e
    for k in range(1, m):
        if not sets[k]:
            raise ft.NotArborescence(f"branch {branches[k]} carries no sink edge")
        parent = -1
        for p in range(k - 1, -1, -1):
            if sets[k] <= sets[p]:
                parent = p
                break
            if sets[k] & sets[p]:
                raise ft.NotArborescence(
                    f"chord sets of branches {branches[k]} and {branches[p]} "
                    "intersect without containment"
                )
        if parent < 0:
            continue
        if chain_policy == "strict":
            if sets[k] == sets[parent]:
                raise ft.AmbiguousParent(
                    f"branches {branches[k]} and {branches[parent]} carry identical "
                    "chord sets; their stacking order is not identifiable"
                )
            twins = [p for p in range(k) if p != parent and sets[p] == sets[parent]]
            if twins:
                raise ft.AmbiguousParent(
                    f"rows {twins + [parent]} offer identical chord sets for "
                    f"branch {branches[k]}"
                )
        src[k] = x_e[parent]
    for j in range(m, e):
        carriers = np.flatnonzero(sorted_entries[:, j] == -1)
        if carriers.size == 0:
            raise ft.NotArborescence(f"sink edge {x_e[j]} appears in no cutset")
        src[j] = x_e[int(carriers.max())]
    edges = tuple((src[i], x_e[i]) for i in range(e))
    if not ft.is_arborescence(ft.ReconstructionResult(edges=edges).as_network()):
        raise ft.NotArborescence("realized edge list failed arborescence validation")
    return edges


def realize_outcome(fn, canon, chain_policy):
    """The edges, or the error class and message."""
    try:
        out = fn(canon, chain_policy)
    except ft.FlowtopoError as exc:
        return type(exc), str(exc)
    return out if isinstance(out, tuple) else out.edges


def assert_matches_row_loop(canon, chain_policy="row_order"):
    got = realize_outcome(ft.realize_topology, canon, chain_policy)
    assert got == realize_outcome(realize_by_row_loop, canon, chain_policy)
    return got


def demo_canon() -> ft.CanonicalCutsetMatrix:
    return canon_from(DEMO_CANONICAL, (1, 2, 6), (5, 3, 4, 7, 8))


class TestRealizeTopology:
    def test_demo_edges(self):
        result = ft.realize_topology(demo_canon())
        assert result.root == 9
        assert set(result.edges) == DEMO_EDGES

    def test_demo_node_labels_identity(self):
        result = ft.realize_topology(demo_canon())
        assert result.node_labels == {lab: lab for lab in range(1, 9)}

    def test_as_network_round_trip(self, demo_truth):
        result = ft.realize_topology(demo_canon())
        net = result.as_network()
        assert ft.is_arborescence(net)
        assert net.edges == demo_truth.edges

    def test_two_top_level_branches(self):
        # root feeds two subtrees; their rows intersect nothing above them
        entries = [[1, 0, -1, -1, 0, 0], [0, 1, 0, 0, -1, -1]]
        result = ft.realize_topology(canon_from(entries, (1, 2), (3, 4, 5, 6)))
        assert result.root == 7
        assert set(result.edges) == {(7, 1), (7, 2), (1, 3), (1, 4), (2, 5), (2, 6)}

    def test_chain_rows_resolved_by_order(self):
        # a single-child chain gives two rows with the same chord set
        entries = [[1, 0, -1], [0, 1, -1]]
        result = ft.realize_topology(canon_from(entries, (1, 2), (3,)))
        assert set(result.edges) == {(4, 1), (1, 2), (2, 3)}

    def test_chain_strict_policy_raises(self):
        entries = [[1, 0, -1], [0, 1, -1]]
        with pytest.raises(ft.AmbiguousParent):
            ft.realize_topology(canon_from(entries, (1, 2), (3,)), chain_policy="strict")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            ft.realize_topology(demo_canon(), chain_policy="loose")

    def test_all_branches_no_chords(self):
        with pytest.raises(ft.NotArborescence):
            ft.realize_topology(canon_from(np.eye(2, dtype=int), (1, 2), ()))

    def test_row_without_sink_edges(self):
        entries = [[1, 0, -1], [0, 1, 0]]
        with pytest.raises(ft.NotArborescence):
            ft.realize_topology(canon_from(entries, (1, 2), (3,)))

    def test_crossing_rows(self):
        entries = [[1, 0, -1, -1, 0], [0, 1, 0, -1, -1]]
        with pytest.raises(ft.NotArborescence):
            ft.realize_topology(canon_from(entries, (1, 2), (3, 4, 5)))

    @pytest.mark.parametrize("branches, chords", [((1,), (5,)), ((3,), (1,))])
    def test_labels_outside_one_to_e_rejected(self, branches, chords):
        with pytest.raises(ft.InvalidArgument, match="exactly 1..2"):
            ft.realize_topology(canon_from([[1, -1]], branches, chords))

    def test_unassigned_chord(self):
        # chord 4 hangs off no branch row at all
        entries = [[1, 0, -1, 0], [0, 1, -1, 0]]
        with pytest.raises(ft.NotArborescence):
            ft.realize_topology(canon_from(entries, (1, 2), (3, 4)))


class TestNestingMatchesRowLoop:
    @pytest.mark.parametrize("family", ft.synth.FAMILIES)
    def test_generated_corpus(self, family):
        for seed in range(8):
            net = ft.generate_within(family, 300 + seed, max_edges=160)
            data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=seed))
            canon = ft.reconstruct_exact(data).diagnostics["canonical"]
            assert_matches_row_loop(canon, "strict")
            assert set(assert_matches_row_loop(canon)) == set(net.edges)

    @pytest.mark.parametrize("entries, branches, chords, policy, message", [
        ([[1, 0, -1, -1, 0], [0, 1, 0, -1, -1]], (1, 2), (3, 4, 5), "row_order",
         "intersect without containment"),
        ([[1, 0, -1, 0], [0, 1, -1, 0]], (1, 2), (3, 4), "row_order",
         "sink edge 4 appears in no cutset"),
        ([[1, 0, -1], [0, 1, 0]], (1, 2), (3,), "row_order", "branch 2 carries no sink edge"),
        ([[1, 0, -1], [0, 1, -1]], (1, 2), (3,), "strict", "identical chord sets"),
        # chain 1 -> 2 above a branching node 4: the chain pair trips first
        ([[1, 0, 0, -1, -1, -1], [0, 1, 0, -1, -1, -1], [0, 0, 1, 0, -1, -1]],
         (1, 2, 4), (3, 5, 6), "strict", "branches 2 and 1 carry identical"),
    ])
    def test_errors(self, entries, branches, chords, policy, message):
        got = assert_matches_row_loop(canon_from(entries, branches, chords), policy)
        assert got[0] in (ft.NotArborescence, ft.AmbiguousParent)
        assert message in got[1]

    def test_random_chord_blocks(self):
        # small random blocks, half of them nested, cover every branch of
        # both policies, errors included
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(600):
            m, c = (int(v) for v in rng.integers(1, 6, size=2))
            block = -(rng.random((m, c)) < rng.uniform(0.1, 0.9)).astype(int)
            if rng.random() < 0.5:
                for k in range(1, m):
                    block[k] = block[int(rng.integers(0, k))] * (rng.random(c) < 0.7)
            labels = tuple(int(v) for v in rng.permutation(m + c) + 1)
            canon = canon_from(np.hstack([np.eye(m, dtype=int), block]), labels[:m], labels[m:])
            for policy in ("row_order", "strict"):
                got = assert_matches_row_loop(canon, policy)
                if isinstance(got[0], type):
                    seen.add(got[0])
                    continue
                # realization is not re-validated; its output is a tree anyway
                seen.add("edges")
                assert ft.is_arborescence(ft.ReconstructionResult(edges=got).as_network())
        assert seen == {"edges", ft.NotArborescence, ft.AmbiguousParent}


class TestVerifyAgainstTruth:
    def test_match(self, demo_truth):
        result = ft.realize_topology(demo_canon())
        assert ft.verify_against_truth(result, demo_truth)

    def test_mismatch(self):
        entries = [[1, 0, -1], [0, 1, -1]]
        chain = ft.realize_topology(canon_from(entries, (1, 2), (3,)))
        other = ft.FlowNetwork(4, ((4, 1), (1, 2), (1, 3)))
        assert not ft.verify_against_truth(chain, other)

    def test_label_universe_mismatch(self, demo_truth):
        entries = [[1, 0, -1], [0, 1, -1]]
        chain = ft.realize_topology(canon_from(entries, (1, 2), (3,)))
        with pytest.raises(ft.LabelMismatch):
            ft.verify_against_truth(chain, demo_truth)


class TestDot:
    def test_digraph_output(self):
        dot = ft.to_dot(ft.realize_topology(demo_canon()))
        assert dot.startswith("digraph")
        assert "9 -> 1" in dot


class TestRoundTripSmall:
    @pytest.mark.parametrize("family", ft.synth.FAMILIES)
    @pytest.mark.parametrize("seed", [5, 6])
    def test_exact_recovery(self, family, seed):
        net = ft.generate_within(family, seed, max_edges=160)
        cfg = ft.FlowSamplerConfig(n_s=2 * net.edge_count, seed=seed)
        data = ft.sample_flows(net, cfg)
        result = ft.reconstruct_exact(data)
        assert ft.verify_against_truth(result, net)
