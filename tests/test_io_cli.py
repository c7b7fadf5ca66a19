import csv
import json
import math

import numpy as np
import pytest

import flowtopo as ft
from flowtopo import io as ftio
from flowtopo.cli import main


def small_net() -> ft.FlowNetwork:
    return ft.generate_arborescence(ft.ArborescenceSpec("binary", (2, 2), (2, 2), seed=3))


class TestNetworkJson:
    def test_round_trip(self, tmp_path):
        net = small_net()
        path = tmp_path / "net.json"
        ftio.dump_network(net, path)
        assert ftio.load_network(path) == net

    def test_label_permutation_reorders_rows(self, tmp_path):
        path = tmp_path / "net.json"
        doc = {
            "nodes": 4,
            "edges": [[1, 3], [4, 1], [1, 2]],
            "labels": [2, 1, 3],
        }
        path.write_text(json.dumps(doc))
        net = ftio.load_network(path)
        # row with label 1 becomes edge 1
        assert net.edges == ((4, 1), (1, 3), (1, 2))

    def test_bad_labels_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"nodes": 3, "edges": [[1, 2], [2, 3]], "labels": [1, 1]}))
        with pytest.raises(ft.ParseError):
            ftio.load_network(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{nope")
        with pytest.raises(ft.ParseError):
            ftio.load_network(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ft.ParseError):
            ftio.load_network(tmp_path / "absent.json")

    def test_network_rejection_becomes_parse_error(self, tmp_path):
        # FlowNetwork refuses the self-loop with InvalidArgument
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"nodes": 3, "edges": [[3, 1], [1, 1]]}))
        with pytest.raises(ft.ParseError, match="self-loop"):
            ftio.load_network(path)

    @pytest.mark.parametrize("doc", [
        {"nodes": 3.7, "edges": [[3, 1], [1, 2]]},
        {"nodes": 3, "edges": [[3, 1], [1, 1.9]]},
        {"nodes": 3, "edges": [[3, 1], [1, 2]], "labels": [2, 1.9]},
    ], ids=["node_count", "endpoint", "label"])
    def test_fractional_ids_rejected(self, tmp_path, doc):
        # int() would truncate each of these to a valid network
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ft.ParseError, match="integer"):
            ftio.load_network(path)

    @pytest.mark.parametrize("doc, field", [
        ({"nodes": 2, "edges": [[True, 2]]}, "edge source"),
        ({"nodes": True, "edges": [[1, 2]]}, "node_count"),
        ({"nodes": 3, "edges": [[3, 1], [1, 2]], "labels": [True, 2]}, "labels"),
    ], ids=["endpoint", "node_count", "label"])
    def test_bool_ids_rejected(self, tmp_path, doc, field):
        # JSON true would otherwise pass as 1
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ft.ParseError, match="integer") as exc:
            ftio.load_network(path)
        assert field in str(exc.value) + str(exc.value.__cause__)


class TestDataCsv:
    def test_round_trip(self, tmp_path):
        net = small_net()
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=14, seed=5))
        path = tmp_path / "data.csv"
        ftio.dump_data_csv(data, path)
        back = ftio.load_data_csv(path)
        assert np.allclose(back.entries, data.entries)

    def test_transposed_round_trip(self, tmp_path):
        net = small_net()
        data = ft.sample_flows(net, ft.FlowSamplerConfig(n_s=14, seed=5))
        path = tmp_path / "data_t.csv"
        ftio.dump_data_csv(data, path, transposed=True)
        back = ftio.load_data_csv(path, transposed=True)
        assert np.allclose(back.entries, data.entries)

    def test_bad_labels(self, tmp_path):
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["edge", "s1", "s2"])
            w.writerow([1, 1.0, 2.0])
            w.writerow([3, 1.0, 2.0])
        with pytest.raises(ft.ParseError):
            ftio.load_data_csv(path, allow_undersampled=True)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["edge", "s1", "s2", "s3"])
            w.writerow([1, 1.0, "x", 2.0])
        with pytest.raises(ft.ParseError):
            ftio.load_data_csv(path, allow_undersampled=True)

    def test_not_utf8(self, tmp_path):
        # the decode error used to escape as a bare UnicodeDecodeError
        path = tmp_path / "data.csv"
        path.write_bytes(b"edge,s1\n1,\xff\n")
        with pytest.raises(ft.ParseError, match="malformed sample table"):
            ftio.load_data_csv(path, allow_undersampled=True)

    @pytest.mark.parametrize("header", ["1,2,3,4", "1,2"])
    def test_transposed_header_must_match_columns(self, tmp_path, header):
        # more labels than columns raised IndexError; fewer dropped columns
        path = tmp_path / "data_t.csv"
        path.write_text(header + "\n" + "1,2.5,3\n4,5,6.5\n" * 4)
        with pytest.raises(ft.ParseError, match="edge labels for 3 columns"):
            ftio.load_data_csv(path, transposed=True)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("transposed, rows", [
        (False, [",,", "edge,s1,s2,s3", "", "2,4,5,6", " , \t,", "1,1,2,3", ","]),
        (True, ["", "2,1", ",", "4,1", " ,\t", "5,2", "", "6,3", ",,"]),
    ])
    def test_blank_rows_skipped(self, tmp_path, end, transposed, rows):
        # rows of nothing but whitespace and commas are not data, wherever they sit
        path = tmp_path / "data.csv"
        path.write_bytes(end.join(rows).encode())
        back = ftio.load_data_csv(path, transposed=transposed)
        assert np.array_equal(back.entries, [[1, 2, 3], [4, 5, 6]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "\r\n,,\r\n", "edge,s1,s2\r\n", "1,2\n \n"])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_no_data_rows(self, tmp_path, text, transposed):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ft.ParseError, match="need a header row and at least one data row"):
            ftio.load_data_csv(path, transposed=transposed)

    @pytest.mark.parametrize("last", ["2,4,5", "2,4,5,6,7", "2,4,5,6,"])
    def test_ragged_row(self, tmp_path, last):
        path = tmp_path / "data.csv"
        path.write_text(f"edge,s1,s2,s3\n1,1,2,3\n{last}\n")
        with pytest.raises(ft.ParseError, match="malformed sample table"):
            ftio.load_data_csv(path)

    @pytest.mark.parametrize("label", ["1.5", "1.0", "1e0"])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_label_must_be_an_integer(self, tmp_path, label, transposed):
        # labels parse as Python integers, so a float spelling of 1 is refused too
        path = tmp_path / "data.csv"
        if transposed:
            path.write_text(f"{label},2\n1,4\n2,5\n3,6\n")
        else:
            path.write_text(f"edge,s1,s2,s3\n{label},1,2,3\n2,4,5,6\n")
        with pytest.raises(ft.ParseError, match="malformed sample table"):
            ftio.load_data_csv(path, transposed=transposed)

    @pytest.mark.parametrize("transposed, text", [
        (False, 'edge,s1,s2,s3\r\n"2","4",5," 6"\r\n1,"1.5e0",2,3\r\n'),
        (True, '"2", 1 \r\n"4","1.5e0"\r\n5," 2"\r\n"6",3\r\n'),
    ])
    def test_quoted_cells(self, tmp_path, transposed, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        back = ftio.load_data_csv(path, transposed=transposed)
        assert np.array_equal(back.entries, [[1.5, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("transposed, golden", [
        (False, b"edge,s1,s2,s3\r\n1,1,-2.5,1e-300\r\n2,0.333333333333,1e+21,123456789012\r\n"),
        (True, b"1,2\r\n1,0.333333333333\r\n-2.5,1e+21\r\n1e-300,123456789012\r\n"),
    ])
    def test_dump_golden_bytes(self, tmp_path, transposed, golden):
        data = ft.FlowDataMatrix(np.array([[1.0, -2.5, 1e-300], [1 / 3, 1e21, 123456789012.5]]))
        path = tmp_path / "data.csv"
        ftio.dump_data_csv(data, path, transposed=transposed)
        assert path.read_bytes() == golden

    @pytest.mark.parametrize("transposed", [False, True])
    def test_dump_matches_per_value_format(self, tmp_path, transposed):
        # reference: each value through Python's own .12g format, CRLF rows
        rng = np.random.default_rng(3)
        entries = rng.choice([-1, 1], (4, 9)) * 10.0 ** rng.uniform(-300, 300, (4, 9))
        rows = [[f"{v:.12g}" for v in row] for row in entries]
        if transposed:
            lines = [[str(lab) for lab in range(1, 5)]] + [list(col) for col in zip(*rows)]
        else:
            lines = [["edge"] + [f"s{i}" for i in range(1, 10)]]
            lines += [[str(lab)] + row for lab, row in enumerate(rows, start=1)]
        path = tmp_path / "data.csv"
        ftio.dump_data_csv(ft.FlowDataMatrix(entries), path, transposed=transposed)
        assert path.read_bytes() == "".join(",".join(ln) + "\r\n" for ln in lines).encode()
        back = ftio.load_data_csv(path, transposed=transposed).entries
        assert np.array_equal(back, [[float(v) for v in row] for row in rows])


class TestNoiseModelJson:
    def test_shared_variance_round_trip(self, tmp_path):
        model = ft.NoiseModel.isotropic(0.75, 5)
        path = tmp_path / "noise.json"
        ftio.dump_noise_model(model, path)
        assert json.loads(path.read_text()) == {
            "kind": "homoscedastic", "sigma2": 0.75, "edges": 5
        }
        back = ftio.load_noise_model(path, edge_count=5)
        assert np.array_equal(back.covariance, model.covariance)

    def test_shared_variance_needs_edge_count(self, tmp_path):
        path = tmp_path / "noise.json"
        ftio.dump_noise_model(ft.NoiseModel.isotropic(1.0, 3), path)
        with pytest.raises(ft.ParseError):
            ftio.load_noise_model(path)

    def test_covariance_file_round_trip(self, tmp_path):
        model = ft.NoiseModel.per_edge(np.array([1.0, 2.0, 3.0]))
        path = tmp_path / "noise.json"
        ftio.dump_noise_model(model, path)
        assert (tmp_path / "noise.cov.csv").exists()
        assert json.loads(path.read_text()) == {"kind": "heteroscedastic", "cov_csv": "noise.cov.csv"}
        back = ftio.load_noise_model(path)
        assert np.array_equal(back.covariance, model.covariance)

    def test_covariance_file_reloads_bit_for_bit(self, tmp_path):
        model = ft.NoiseModel.per_edge(np.random.default_rng(0).uniform(0.1, 2.0, 5))
        path = tmp_path / "noise.json"
        ftio.dump_noise_model(model, path)
        assert np.array_equal(ftio.load_noise_model(path).covariance, model.covariance)

    def test_near_shared_variance_keeps_its_covariance(self, tmp_path):
        # within np.allclose of 1 * I, but not equal to it: the shared-
        # variance form would reload as the identity
        cov = np.diag([1.0, 1.000004, 1.0])
        cov[0, 1] = cov[1, 0] = 5e-9
        path = tmp_path / "noise.json"
        ftio.dump_noise_model(ft.NoiseModel(cov), path)
        assert np.array_equal(ftio.load_noise_model(path, edge_count=3).covariance, cov)

    def test_covariance_size_checked_against_edge_count(self, tmp_path):
        path = tmp_path / "noise.json"
        ftio.dump_noise_model(ft.NoiseModel.per_edge(np.array([1.0, 2.0, 3.0])), path)
        assert ftio.load_noise_model(path, edge_count=3).edge_count == 3
        with pytest.raises(ft.ParseError, match="3x3 but the data has 4 edges"):
            ftio.load_noise_model(path, edge_count=4)

    def test_shared_variance_size_checked_against_edge_count(self, tmp_path):
        path = tmp_path / "noise.json"
        ftio.dump_noise_model(ft.NoiseModel.isotropic(1.0, 3), path)
        assert ftio.load_noise_model(path, edge_count=3).edge_count == 3
        with pytest.raises(ft.ParseError, match="for 3 edges but the data has 4 edges"):
            ftio.load_noise_model(path, edge_count=4)
        # a file without the count takes the data's size, as it always did
        path.write_text(json.dumps({"kind": "homoscedastic", "sigma2": 1.0}))
        assert ftio.load_noise_model(path, edge_count=4).edge_count == 4

    @pytest.mark.parametrize("doc", [
        {"kind": "homo", "sigma2": 1.0, "mean": [0.0, 0.0]},
        {"kind": "homo", "sigma2": 1.0, "mean": [0.0, 0.0, 0.0, 0.0]},
    ])
    def test_mean_length_checked_against_edge_count(self, tmp_path, doc):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ft.ParseError, match="mean"):
            ftio.load_noise_model(path, edge_count=3)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({"kind": "pink", "sigma2": 1.0}))
        with pytest.raises(ft.ParseError):
            ftio.load_noise_model(path, edge_count=2)


class TestResultJson:
    def test_round_trip(self, tmp_path, demo_truth):
        data = ft.sample_flows(demo_truth, ft.FlowSamplerConfig(n_s=16, seed=1))
        result = ft.reconstruct_exact(data)
        path = tmp_path / "result.json"
        ftio.dump_result(result, path)
        back = ftio.load_result(path)
        assert set(back.edges) == set(result.edges)
        assert back.root == 9

    def test_root_consistency_checked(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_text(json.dumps({"root": 5, "edges": [[5, 1], [1, 2]]}))
        with pytest.raises(ft.ParseError):
            ftio.load_result(path)

    @pytest.mark.parametrize("edges", [[[4, 1], [1, 1], [1, 3]], [[3, 1], [1, 5]]])
    def test_targets_must_be_each_label_once(self, tmp_path, edges):
        path = tmp_path / "result.json"
        path.write_text(json.dumps({"root": len(edges) + 1, "edges": edges}))
        with pytest.raises(ft.ParseError, match="each of 1"):
            ftio.load_result(path)


class TestMatrixAndReport:
    def test_report_nulls_non_finite(self):
        report = ft.RankTestReport(
            candidates=(3, 2),
            statistics=(math.inf, 1.5),
            p_values=(0.0, 0.4),
            chosen_m=2,
            alpha=0.05,
        )
        doc = ftio.report_to_json(report)
        assert doc["statistics"][0] is None
        assert doc["statistics"][1] == 1.5
        assert json.loads(json.dumps(doc))["statistics"][0] is None


class TestCli:
    def run_ok(self, argv):
        assert main(argv) == 0

    def test_generate_sample_reconstruct_verify(self, tmp_path):
        net_path = tmp_path / "net.json"
        self.run_ok(["generate", "--family", "binary", "--seed", "4",
                     "--layers", "3", "3", "--out", str(net_path)])
        self.run_ok(["sample", "--network", str(net_path), "--z", "3",
                     "--seed", "2", "--out", str(tmp_path / "run")])
        self.run_ok(["reconstruct", "--data", str(tmp_path / "run.csv"),
                     "--out", str(tmp_path / "res")])
        assert (tmp_path / "res.json").exists()
        assert (tmp_path / "res.dot").exists()
        assert main(["verify", "--result", str(tmp_path / "res.json"),
                     "--network", str(net_path)]) == 0

    def test_verify_accepts_any_node_numbering(self, tmp_path, capsys):
        net = ft.generate_within("binary", 3, max_edges=20)
        ftio.dump_network(net, tmp_path / "net.json")
        self.run_ok(["sample", "--network", str(tmp_path / "net.json"), "--z", "3",
                     "--seed", "2", "--out", str(tmp_path / "run")])
        self.run_ok(["reconstruct", "--data", str(tmp_path / "run.csv"),
                     "--out", str(tmp_path / "res")])
        # the same tree with its node ids shuffled
        ids = np.random.default_rng(0).permutation(net.node_count) + 1
        shuffled = ft.FlowNetwork(net.node_count, [(ids[s - 1], ids[t - 1]) for s, t in net.edges])
        assert shuffled.edges != net.edges
        ftio.dump_network(shuffled, tmp_path / "shuffled.json")
        capsys.readouterr()
        assert main(["verify", "--result", str(tmp_path / "res.json"),
                     "--network", str(tmp_path / "shuffled.json")]) == 0
        assert capsys.readouterr().out == "match\n"

    def test_verify_refuses_a_reference_that_is_not_a_tree(self, tmp_path):
        self.run_ok(["generate", "--family", "binary", "--seed", "4",
                     "--layers", "2", "2", "--out", str(tmp_path / "net.json")])
        self.run_ok(["sample", "--network", str(tmp_path / "net.json"), "--z", "3",
                     "--seed", "2", "--out", str(tmp_path / "run")])
        self.run_ok(["reconstruct", "--data", str(tmp_path / "run.csv"),
                     "--out", str(tmp_path / "res")])
        # six edges over seven nodes, node 2 entered twice
        ftio.dump_network(ft.FlowNetwork(7, ((7, 1), (7, 2), (1, 2), (1, 4), (2, 5), (2, 6))),
                          tmp_path / "bad.json")
        assert main(["verify", "--result", str(tmp_path / "res.json"),
                     "--network", str(tmp_path / "bad.json")]) == 2

    def test_verify_mismatch_exits_one(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.run_ok(["generate", "--family", "binary", "--seed", "4",
                     "--layers", "3", "3", "--out", str(a)])
        # same edge count, different shape: root feeding 14 leaves
        self.run_ok(["generate", "--family", "fat_short", "--seed", "9",
                     "--layers", "1", "1", "--children", "14", "14", "--out", str(b)])
        self.run_ok(["sample", "--network", str(a), "--z", "3",
                     "--seed", "2", "--out", str(tmp_path / "run")])
        self.run_ok(["reconstruct", "--data", str(tmp_path / "run.csv"),
                     "--out", str(tmp_path / "res")])
        assert main(["verify", "--result", str(tmp_path / "res.json"),
                     "--network", str(b)]) == 1

    def test_noisy_reconstruct_with_model_file(self, tmp_path):
        net_path = tmp_path / "net.json"
        self.run_ok(["generate", "--family", "binary", "--seed", "4",
                     "--layers", "3", "3", "--out", str(net_path)])
        self.run_ok(["sample", "--network", str(net_path), "--z", "50",
                     "--seed", "2", "--snr", "1000", "--out", str(tmp_path / "run")])
        self.run_ok(["reconstruct", "--data", str(tmp_path / "run.csv"),
                     "--noise", str(tmp_path / "run.noise.json"),
                     "--out", str(tmp_path / "res")])
        assert main(["verify", "--result", str(tmp_path / "res.json"),
                     "--network", str(net_path)]) == 0

    def test_parse_failure_exits_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,header\n")
        assert main(["reconstruct", "--data", str(bad)]) == 2

    def test_bool_node_id_exits_two(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"nodes": 2, "edges": [[True, 2]]}))
        assert main(["sample", "--network", str(path), "--z", "3", "--seed", "2",
                     "--out", str(tmp_path / "run")]) == 2
        assert "edge source must be an integer, got True" in capsys.readouterr().err

    def test_no_structure_exits_three(self, tmp_path):
        rng = np.random.default_rng(0)
        data = ft.FlowDataMatrix(rng.standard_normal((4, 40)))
        path = tmp_path / "noise.csv"
        ftio.dump_data_csv(data, path)
        assert main(["reconstruct", "--data", str(path)]) == 3

    def test_order_test_keeping_every_eigenvalue_exits_four(self, tmp_path, capsys):
        # this ended in an IndexError traceback
        path = tmp_path / "run.csv"
        ftio.dump_data_csv(ft.FlowDataMatrix(np.random.default_rng(0).random((3, 4))), path)
        with pytest.warns(UserWarning, match="guideline"):
            assert main(["reconstruct", "--data", str(path), "--sigma2", "1e-5"]) == 4
        assert "all 3 eigenvalues equal (m = 3)" in capsys.readouterr().err

    def test_sweep_smoke(self, tmp_path):
        out = tmp_path / "sweep.csv"
        self.run_ok(["sweep", "--families", "binary", "--networks", "1",
                     "--snr", "1e9", "--z-max", "2", "--trials", "2",
                     "--max-edges", "20", "--seed", "1", "--out", str(out)])
        rows = list(csv.reader(out.open()))
        assert rows[0][0] == "family"
        assert len(rows) > 1

    @pytest.mark.parametrize("bad", [
        ["--trials", "0"],
        ["--z-max", "0"],
        ["--networks", "0"],
        ["--cell-budget", "-1"],
    ])
    def test_sweep_config_rejection_exits_two(self, tmp_path, capsys, bad):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--families", "binary", "--out", str(out)] + bad
        assert main(argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        for flag in bad[::2]:
            assert flag in err

    def test_threads_flag_refused(self, tmp_path, capsys):
        # trials run one at a time; the old flag is an error, not dropped
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--families", "binary", "--networks", "1", "--snr", "1e9",
                  "--z-max", "1", "--trials", "1", "--max-edges", "20",
                  "--threads", "2", "--out", str(out)])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["reconstruct", "--data", "run.csv"],
        ["sweep", "--families", "binary", "--out", "sweep.csv"],
    ])
    @pytest.mark.parametrize("alpha", ["1.5", "0", "nan", "x"])
    def test_alpha_outside_unit_interval_exits_two(self, tmp_path, capsys, command, alpha):
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--alpha", alpha])
        assert exc.value.code == 2
        assert "--alpha" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["reconstruct", "--data", "run.csv", "--sigma2", "-1"], "--sigma2"),
        (["reconstruct", "--data", "run.csv", "--zero-tol", "-1"], "--zero-tol"),
        (["sample", "--network", "net.json", "--n-s", "0", "--out", "run"], "--n-s"),
        (["sweep", "--snr", "-5", "--out", "sweep.csv"], "--snr"),
        (["bench", "--sizes", "8", "--z", "0"], "--z"),
        (["bench", "--sizes", "8", "--repeats", "0"], "--repeats"),
    ])
    def test_nonpositive_number_exits_two(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / a) if "." in a or a == "run" else a for a in argv])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a positive" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--noise", "run.noise.json", "--zero-tol", "1e-3"], ["--zero-tol", "--noise"]),
        (["--zero-tol", "1e-3", "--sigma2", "0.5"], ["--zero-tol", "--sigma2"]),
        (["--alpha", "0.01", "--zero-tol", "1e-3"], ["--alpha", "--noise", "--sigma2"]),
        (["--alpha", "0.01"], ["--alpha", "--noise", "--sigma2"]),
    ])
    def test_lane_conflict_exits_two(self, tmp_path, capsys, flags, named):
        # the noise flags pick the lane; a setting for the other lane is
        # refused, not dropped
        data = ft.sample_flows(small_net(), ft.FlowSamplerConfig(n_s=60, seed=5))
        ftio.dump_data_csv(data, tmp_path / "run.csv")
        ftio.dump_noise_model(ft.NoiseModel.isotropic(0.5, data.edge_count),
                              tmp_path / "run.noise.json")
        argv = ["reconstruct", "--data", str(tmp_path / "run.csv"), "--out", str(tmp_path / "res")]
        argv += [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in named), err
        assert not (tmp_path / "res.json").exists()

    @pytest.mark.parametrize("zero_tol", ["1e-10", "1"])
    def test_zero_tol_outside_gram_resolution_exits_two(self, tmp_path, capsys, zero_tol):
        # refused, not clamped to the floor, and the message names the flag
        data = ft.sample_flows(small_net(), ft.FlowSamplerConfig(n_s=60, seed=5))
        ftio.dump_data_csv(data, tmp_path / "run.csv")
        assert main(["reconstruct", "--data", str(tmp_path / "run.csv"),
                     "--zero-tol", zero_tol, "--out", str(tmp_path / "res")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: reconstruct: --zero-tol: zero_tol must lie in"), err
        assert not (tmp_path / "res.json").exists()

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--seed", "-1", "--out", str(tmp_path / "net.json")])
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "net.json").exists()

    def test_noise_and_sigma2_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--data", str(tmp_path / "run.csv"),
                  "--noise", str(tmp_path / "run.noise.json"), "--sigma2", "0.5"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    # the flag set out of range comes right after the command
    @pytest.mark.parametrize("argv", [
        ["bench", "--sizes", "1"],
        ["generate", "--layers", "3", "1", "--out", "net.json"],
        ["generate", "--children", "3", "1", "--family", "thin_long", "--out", "net.json"],
        # a repeated size gave RankWarnings and a meaningless slope
        ["bench", "--sizes", "8", "8", "--repeats", "1"],
    ])
    def test_invalid_argument_exits_two(self, tmp_path, capsys, argv):
        assert main([str(tmp_path / a) if a.endswith(".json") else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert argv[1] in err
        assert not (tmp_path / "net.json").exists()

    def test_noise_model_size_mismatch_exits_two(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        self.run_ok(["generate", "--family", "binary", "--seed", "4",
                     "--layers", "3", "3", "--out", str(net_path)])
        self.run_ok(["sample", "--network", str(net_path), "--z", "50",
                     "--seed", "2", "--snr", "1000", "--out", str(tmp_path / "run")])
        edges = ftio.load_network(net_path).edge_count
        # equal variances dump in the shared-variance form, unequal as a grid
        for variances in (np.ones(edges + 1), np.arange(1.0, edges + 2)):
            ftio.dump_noise_model(ft.NoiseModel.per_edge(variances),
                                  tmp_path / "wrong.noise.json")
            assert main(["reconstruct", "--data", str(tmp_path / "run.csv"),
                         "--noise", str(tmp_path / "wrong.noise.json")]) == 2
            assert f"but the data has {edges} edges" in capsys.readouterr().err

    def test_bench_smoke(self, tmp_path):
        out = tmp_path / "bench.json"
        self.run_ok(["bench", "--sizes", "8", "16", "--repeats", "1",
                     "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["sizes"] == [8, 16]
        assert math.isfinite(doc["slope_total"])

    @pytest.mark.filterwarnings("error")
    def test_bench_below_six_edges(self, tmp_path, capsys):
        # sizes 3-5 named an invalid node and exited 2; size 2 exited 3
        for sizes in (["4", "8"], ["2", "8"]):
            self.run_ok(["bench", "--sizes", *sizes, "--repeats", "1"])
        # one law count at every size: no alg2-vs-m slope, not a LinAlgError
        capsys.readouterr()
        self.run_ok(["bench", "--sizes", "2", "3", "5", "--repeats", "1"])
        assert "alg2-vs-m slope nan" in capsys.readouterr().out


class TestExitCodeMap:
    def test_classes(self):
        from flowtopo.cli import _exit_code

        assert _exit_code(ft.ParseError("x")) == 2
        assert _exit_code(ft.NotPositiveDefinite("x")) == 2
        assert _exit_code(ft.RankZero("x")) == 3
        assert _exit_code(ft.NonPositiveFlow("x")) == 3
        assert _exit_code(ft.InvalidArgument("x")) == 2
        assert _exit_code(ft.NoStableOrder("x")) == 3
        assert _exit_code(ft.SnapFailure("x")) == 4
        assert _exit_code(ft.NonIntegerCutset("x")) == 4
        assert _exit_code(ft.NotArborescence("x")) == 5
        assert _exit_code(ft.LabelMismatch("x")) == 5
