"""Tests for the experiment CLI."""

import json

import pytest

from repro.experiments.cli import _ARTIFACTS, build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["--artifact", "table1"])
        assert args.preset == "test"
        assert args.trials == 20

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--artifact", "fig99"])

    def test_all_paper_artifacts_registered(self):
        expected = {"table1", "table2"} | {f"fig{i}" for i in (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)}
        assert expected <= set(_ARTIFACTS)

    def test_cohort_mode_choices_come_from_the_library(self):
        """One source of truth: the flag offers exactly COHORT_MODES."""
        from repro.fl.cohort import COHORT_MODES

        (action,) = [a for a in build_parser()._actions if a.dest == "cohort_mode"]
        assert tuple(action.choices) == COHORT_MODES == ("serial", "fused")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--artifact", "fig8", "--cohort-mode", "vectorized"])


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table1" in out

    def test_requires_artifact(self, capsys):
        assert main([]) == 2

    def test_table1_runs(self, capsys):
        assert main(["--artifact", "table1"]) == 0
        out = capsys.readouterr().out
        assert "cifar10" in out and "reddit" in out

    def test_fig7_with_json_out(self, tmp_path, capsys):
        out_file = str(tmp_path / "records.json")
        code = main(
            [
                "--artifact",
                "fig7",
                "--bank-configs",
                "4",
                "--trials",
                "2",
                "--out",
                out_file,
            ]
        )
        assert code == 0
        with open(out_file) as fh:
            payload = json.load(fh)
        assert len(payload) == 4 * 4  # 4 configs x 4 datasets
        assert {"dataset", "full_error", "min_client_error"} <= set(payload[0])
