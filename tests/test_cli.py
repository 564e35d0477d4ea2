import argparse
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from fedhire.cli import (
    CliError,
    ExperimentSpec,
    _resolve_spec,
    cmd_run,
    determinism_hash,
    load_csv,
    main,
)

from conftest import blob_data


def write_csv(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture()
def blob_csv(tmp_path):
    data = blob_data(
        [[0.05, 0.05], [0.95, 0.05], [0.5, 0.95]], 60, 0.03, seed=77
    )
    path = tmp_path / "blobs.csv"
    rows = [
        [f"{x:.6f}", f"{y:.6f}", f"c{label}"]
        for (x, y), label in zip(data.values, data.labels)
    ]
    write_csv(path, rows, header=["f0", "f1", "cls"])
    return str(path)


class TestLoadCsv:
    def test_header_and_named_label(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [[1, 10, "a"], [2, 20, "b"], [3, 30, "a"]],
                  header=["x", "y", "cls"])
        data = load_csv(str(path), label_column="cls")
        assert data.values.shape == (3, 2)
        np.testing.assert_array_equal(data.labels, [0, 1, 0])
        assert data.values.min() == 0.0 and data.values.max() == 1.0

    def test_label_by_index_without_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [[1, 0], [2, 0], [3, 1]])
        data = load_csv(str(path), label_column=1)
        np.testing.assert_array_equal(data.labels, [0, 0, 1])
        assert data.values.shape[1] == 1

    def test_no_label_column(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [[1, 2], [3, 4]])
        data = load_csv(str(path))
        assert data.labels is None

    def test_constant_feature_normalizes_to_zero(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [[5, 1], [5, 2], [5, 3]])
        data = load_csv(str(path))
        np.testing.assert_array_equal(data.values[:, 0], 0.0)

    def test_nan_cell_rejected_with_location(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [[1, 2], [1, "NaN"]])
        with pytest.raises(CliError, match="row 1, column 1"):
            load_csv(str(path))

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [[1, 2], ["oops", 3]])
        with pytest.raises(CliError, match="row 1, column 0"):
            load_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(CliError):
            load_csv(str(path))

    def test_unknown_label_name_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [[1, 2]], header=["a", "b"])
        with pytest.raises(CliError):
            load_csv(str(path), label_column="missing")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(CliError):
            load_csv(str(path))


class TestCmdRun:
    def spec(self, blob_csv, tmp_path, repeats=2, seed=4):
        return ExperimentSpec(
            data=blob_csv,
            label_column="cls",
            clients=3,
            k_star=3,
            fragments_per_cluster=2,
            repeats=repeats,
            seed=seed,
            out=str(tmp_path / "results.json"),
        )

    def test_per_run_records_and_aggregate(self, blob_csv, tmp_path):
        results = cmd_run(self.spec(blob_csv, tmp_path, repeats=3))
        assert len(results["runs"]) == 3
        seeds = [run["seed"] for run in results["runs"]]
        assert seeds == [4, 5, 6]
        for run in results["runs"]:
            for key in ("purity", "ari", "nmi", "acc", "hierarchy_ks",
                        "communicated_values", "timings"):
                assert key in run
        agg = results["aggregate"]
        values = [run["purity"] for run in results["runs"]]
        assert agg["purity"]["mean"] == pytest.approx(np.mean(values))
        assert agg["purity"]["std"] == pytest.approx(np.std(values, ddof=1))

    def test_single_repeat_std_zero(self, blob_csv, tmp_path):
        results = cmd_run(self.spec(blob_csv, tmp_path, repeats=1))
        assert results["aggregate"]["ari"]["std"] == 0.0

    def test_missing_labels_rejected(self, tmp_path):
        path = tmp_path / "unlabeled.csv"
        write_csv(path, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
        spec = ExperimentSpec(
            data=str(path), label_column=None, clients=2, k_star=2,
            out=str(tmp_path / "r.json"),
        )
        with pytest.raises(CliError):
            cmd_run(spec)

    def test_determinism_hash_ignores_timings(self, blob_csv, tmp_path):
        r1 = cmd_run(self.spec(blob_csv, tmp_path))
        r2 = cmd_run(self.spec(blob_csv, tmp_path))
        assert r1["determinism_hash"] == r2["determinism_hash"]
        # timing values differ between runs, but the hash does not see them
        t1 = [run["timings"] for run in r1["runs"]]
        t2 = [run["timings"] for run in r2["runs"]]
        assert determinism_hash(r1) == determinism_hash(r2)
        assert json.dumps(t1) != json.dumps(t2) or t1 == t2


class TestMainEntry:
    def test_run_subcommand(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = main([
            "run", "--data", blob_csv, "--labels", "cls", "--clients", "3",
            "--k-star", "3", "--fragments", "2", "--repeats", "1",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        results = json.loads(out.read_text())
        assert "determinism_hash" in results
        assert "purity" in capsys.readouterr().out

    def test_run_from_spec_file(self, blob_csv, tmp_path):
        spec_path = tmp_path / "spec.json"
        out = tmp_path / "res.json"
        spec_path.write_text(json.dumps({
            "data": blob_csv, "labels": "cls", "clients": 3, "k_star": 3,
            "fragments": 2, "repeats": 1, "seed": 7, "out": str(out),
        }))
        assert main(["run", "--spec", str(spec_path)]) == 0
        flags_out = tmp_path / "res2.json"
        assert main([
            "run", "--data", blob_csv, "--labels", "cls", "--clients", "3",
            "--k-star", "3", "--fragments", "2", "--seed", "7",
            "--out", str(flags_out),
        ]) == 0
        a = json.loads(out.read_text())
        b = json.loads(flags_out.read_text())
        assert a["determinism_hash"] == b["determinism_hash"]

    def test_run_without_spec_or_data_fails(self, capsys):
        assert main(["run"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_spec_key_rejected(self, blob_csv, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "data": blob_csv, "labels": "cls", "k_star": 3, "k0_fracton": 0.1,
            "out": str(tmp_path / "res.json"),
        }))
        assert main(["run", "--spec", str(spec_path)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "CliError"
        assert "k0_fracton" in payload["message"]
        assert not (tmp_path / "res.json").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("clients", 2.9), ("repeats", 1.5), ("seed", True), ("k_star", 3.0),
         ("fragments", 2.5), ("clients", "2.9"), ("repeats", [1])],
    )
    def test_non_integer_spec_value_rejected(self, blob_csv, tmp_path, capsys,
                                             key, value):
        # an int setting is never truncated: 2.9 clients is an error, not 2
        spec_path = tmp_path / "spec.json"
        spec = {"data": blob_csv, "labels": "cls", "k_star": 3,
                "out": str(tmp_path / "res.json")}
        spec[key] = value
        spec_path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(spec_path)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "CliError"
        assert f": {key}: " in payload["message"]
        assert not (tmp_path / "res.json").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("eta", True), ("k0_fraction", False), ("eta", [0.05]), ("k0_fraction", {}),
         ("eta", "fast"), ("k0_fraction", "0.5.1")],
    )
    def test_non_number_float_spec_value_rejected(self, blob_csv, tmp_path, capsys,
                                                  key, value):
        # a JSON boolean is not read as 1.0 or 0.0
        spec_path = tmp_path / "spec.json"
        spec = {"data": blob_csv, "labels": "cls", "k_star": 3,
                "out": str(tmp_path / "res.json")}
        spec[key] = value
        spec_path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(spec_path)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "CliError"
        assert f": {key}: " in payload["message"]
        assert not (tmp_path / "res.json").exists()

    def test_float_spec_values_parse_like_flags(self, blob_csv, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "data": blob_csv, "k_star": 3, "eta": 1, "k0_fraction": "0.25",
        }))
        spec = _resolve_spec(argparse.Namespace(), str(spec_path))
        assert (spec.eta, spec.k0_fraction) == (1.0, 0.25)
        assert type(spec.eta) is float
        with pytest.raises(SystemExit):
            main(["run", "--data", blob_csv, "--k-star", "3", "--eta", "fast"])

    @pytest.mark.parametrize("key, value", [("k0_fraction", 0.0), ("eta", -1.0)])
    def test_out_of_range_float_setting_fails_the_run(self, blob_csv, tmp_path,
                                                      capsys, key, value):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "data": blob_csv, "labels": "cls", "k_star": 3, key: value,
            "out": str(tmp_path / "res.json"),
        }))
        assert main(["run", "--spec", str(spec_path)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert key in payload["message"]
        assert not (tmp_path / "res.json").exists()

    def test_integer_spec_values_parse_like_flags(self, blob_csv, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "data": blob_csv, "k_star": 3, "clients": "2", "repeats": 2,
            "seed": -1, "fragments": "auto",
        }))
        spec = _resolve_spec(argparse.Namespace(), str(spec_path))
        assert (spec.clients, spec.repeats, spec.seed) == (2, 2, -1)
        assert spec.fragments_per_cluster == "auto"
        with pytest.raises(SystemExit):
            main(["run", "--data", blob_csv, "--k-star", "3", "--clients", "2.9"])

    @pytest.mark.parametrize(
        "key, value",
        [("repeats", None), ("seed", None), ("clients", None), ("data", None),
         ("out", None), ("data", 5), ("report", 5), ("out", ["res.json"]),
         ("labels", True), ("labels", False), ("labels", 1.0)],
    )
    def test_spec_value_of_the_wrong_json_type_names_the_key(self, blob_csv, tmp_path,
                                                             key, value):
        # null stands only for a None default (labels, report); a boolean is
        # not a label column index, and a path must be a string
        spec_path = tmp_path / "spec.json"
        spec = {"data": blob_csv, "labels": "cls", "k_star": 3}
        spec[key] = value
        spec_path.write_text(json.dumps(spec))
        with pytest.raises(CliError, match=f": {key}: "):
            _resolve_spec(argparse.Namespace(), str(spec_path))

    def test_spec_nulls_and_label_index_where_allowed(self, blob_csv, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "data": blob_csv, "k_star": 3, "labels": None, "report": None,
        }))
        spec = _resolve_spec(argparse.Namespace(), str(spec_path))
        assert (spec.label_column, spec.report) == (None, None)
        spec_path.write_text(json.dumps({"data": blob_csv, "k_star": 3, "labels": 2}))
        assert _resolve_spec(argparse.Namespace(), str(spec_path)).label_column == 2

    def test_spec_file_then_flags_then_defaults(self, blob_csv, tmp_path):
        # spec-file values win over flags; flags given next to --spec fill
        # in what the file leaves out; the rest take their defaults
        spec_path = tmp_path / "spec.json"
        out = tmp_path / "res.json"
        spec_path.write_text(json.dumps({
            "data": blob_csv, "labels": "cls", "k_star": 3, "clients": 3,
        }))
        assert main([
            "run", "--spec", str(spec_path), "--clients", "2", "--seed", "9",
            "--fragments", "2", "--out", str(out),
        ]) == 0
        spec = json.loads(out.read_text())["spec"]
        assert spec == {
            "data": blob_csv, "label_column": "cls", "clients": 3, "k_star": 3,
            "eta": 0.05, "k0_fraction": 0.5, "fragments_per_cluster": 2,
            "repeats": 1, "seed": 9,
        }

    def test_run_with_report(self, blob_csv, tmp_path):
        out = tmp_path / "res.json"
        report = tmp_path / "report.json"
        code = main([
            "run", "--data", blob_csv, "--labels", "cls", "--clients", "3",
            "--k-star", "3", "--fragments", "2", "--out", str(out),
            "--report", str(report),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert "levels" in doc and "server_assignments" in doc

    def test_partition_subcommand(self, blob_csv, tmp_path):
        out = tmp_path / "plan.json"
        code = main([
            "partition", "--data", blob_csv, "--labels", "cls",
            "--clients", "3", "--k-star", "3", "--out", str(out),
        ])
        assert code == 0
        plan = json.loads(out.read_text())
        assert len(plan["clients"]) == 3

    def test_inspect_subcommand(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text('{"a": 1}')
        assert main(["inspect", str(path)]) == 0
        assert '"a": 1' in capsys.readouterr().out

    def test_error_path_exit_code_and_json(self, tmp_path, capsys):
        code = main([
            "run", "--data", str(tmp_path / "missing.csv"), "--k-star", "2",
        ])
        assert code == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert "error" in payload and "message" in payload

    def test_negative_seed_names_the_setting(self, blob_csv, tmp_path, capsys):
        code = main([
            "run", "--data", blob_csv, "--labels", "cls", "--k-star", "3",
            "--seed", "-1", "--out", str(tmp_path / "res.json"),
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["message"] == "seed must be >= 0, got -1"

    def test_log_env_var(self, blob_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("FED_HIRE_LOG", "debug")
        out = tmp_path / "res.json"
        code = main([
            "run", "--data", blob_csv, "--labels", "cls", "--clients", "2",
            "--k-star", "3", "--fragments", "2", "--out", str(out),
        ])
        assert code == 0


def _help_text(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0, argv
    return capsys.readouterr().out


def test_readme_cli_block_matches_the_parser(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    documented = {
        line.split()[1] for line in block.splitlines() if line.startswith("fed-hire ")
    }
    for sub in sorted(documented):
        _help_text(capsys, [sub, "--help"])
    usage = re.search(r"\{([\w,]+)\}", _help_text(capsys, ["--help"]))
    assert set(usage.group(1).split(",")) <= documented
