"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table2"])
        assert args.experiment == "table2"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_retired_mode_flag_rejected(self, capsys):
        # One execution tier: there is no --mode to choose between tiers.
        assert build_parser().parse_args(["query"]).experiment == "query"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--mode", "process"])
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

    def test_dataset_repeatable(self):
        args = build_parser().parse_args(
            ["fig5", "--dataset", "hepth", "--dataset", "as733"]
        )
        assert args.dataset == ["hepth", "as733"]


class TestMain:
    def test_table2_prints(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "sim(A, node)" in out

    def test_table3_prints(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "quick")
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "as733" in out

    def test_profile_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        assert main(["table3", "--profile", "quick"]) == 0
        out = capsys.readouterr().out
        assert "as733" in out

    def test_export_dataset(self, capsys, tmp_path):
        assert (
            main(
                [
                    "export-dataset",
                    "--dataset",
                    "hepth",
                    "--out",
                    str(tmp_path),
                    "--snapshots",
                    "2",
                ]
            )
            == 0
        )
        assert "wrote 2 snapshot files" in capsys.readouterr().out
        files = sorted((tmp_path / "hepth").glob("*.txt"))
        assert len(files) == 2

    def test_export_dataset_requires_out(self):
        with pytest.raises(SystemExit):
            main(["export-dataset"])

    def test_check_against_baseline(self, tmp_path, capsys):
        assert main(["table2", "--save", str(tmp_path / "table2.json")]) == 0
        capsys.readouterr()
        assert main(["check", "--baseline", str(tmp_path)]) == 0
        assert "table2: ok" in capsys.readouterr().out

    def test_check_detects_drift(self, tmp_path, capsys):
        from repro.experiments.serialization import save_rows

        # A fabricated baseline with a wrong value must trip the check.
        bogus = [{"node": "A", "sim(A, node)": 0.5}] + [
            {"node": chr(ord("B") + i), "sim(A, node)": 0.0} for i in range(7)
        ]
        save_rows(bogus, tmp_path / "table2.json", experiment="table2")
        assert main(["check", "--baseline", str(tmp_path)]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_check_requires_baseline(self):
        with pytest.raises(SystemExit):
            main(["check"])

    def test_fig7_prints_sparklines(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "quick")
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "taller = slower" in out

    def test_all_saves_one_json_per_experiment(self, tmp_path, capsys, monkeypatch):
        """'all --save DIR' writes one result file per runner.  Patch the
        expensive runners to keep this a CLI-wiring test, not a rerun of
        the whole harness."""
        import repro.cli as cli

        monkeypatch.setenv("REPRO_PROFILE", "quick")
        stub_rows = [{"stub": 1}]
        for name in (
            "run_figure5",
            "run_figure6",
            "run_figure7",
            "run_pruning_ablation",
            "run_estimator_ablation",
            "run_scalability",
            "run_c_sensitivity",
            "run_theta_sensitivity",
        ):
            monkeypatch.setattr(cli, name, lambda *a, **k: list(stub_rows))
        assert main(["all", "--save", str(tmp_path)]) == 0
        written = sorted(p.name for p in tmp_path.glob("*.json"))
        assert "table2.json" in written
        assert "fig5.json" in written
        assert len(written) == 10
