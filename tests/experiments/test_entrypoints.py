"""CLI/env plumbing of the runnable entrypoints.

The execution-engine knobs — ``--cohort-mode``, ``--workers`` /
``$REPRO_WORKERS``, ``--cache-dir`` / ``$REPRO_BANK_CACHE``, and the
PR 5 ``--methods`` tuner list — were previously exercised only
implicitly by running whole artifacts. These tests pin the parsing and
rejection paths directly: argparse surfaces of the example scripts, the
experiments CLI, and the environment resolution inside
``ExperimentContext`` / ``resolve_cohort_mode``.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

from repro.engine.executor import ProcessExecutor, SerialExecutor
from repro.experiments import METHODS, ExperimentContext
from repro.experiments.cli import build_parser as cli_build_parser
from repro.experiments.cli import main as cli_main
from repro.fl.cohort import COHORT_VECTOR_ENV, resolve_cohort_mode

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def load_example(name):
    """Import an example script as a module (examples/ is not a package)."""
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestResolveCohortModeRejections:
    def test_explicit_unknown_mode(self):
        with pytest.raises(ValueError, match="cohort_mode"):
            resolve_cohort_mode("lockstep")

    @pytest.mark.parametrize(
        "raw", ["2", "fussed", "vector", "none?", "vectorized", "1", "off", "true"]
    )
    def test_env_unknown_values(self, raw, monkeypatch):
        """Typos, the retired "vectorized" mode and its boolean spellings
        all raise, and the message names the surviving slab mode."""
        monkeypatch.setenv(COHORT_VECTOR_ENV, raw)
        with pytest.raises(ValueError, match=f"{COHORT_VECTOR_ENV}.*fused"):
            resolve_cohort_mode(None)

    @pytest.mark.parametrize(
        "raw,expected",
        [("", "fused"), ("serial", "serial"), ("fused", "fused"), ("FUSED", "fused")],
    )
    def test_env_accepted_values(self, raw, expected, monkeypatch):
        monkeypatch.setenv(COHORT_VECTOR_ENV, raw)
        assert resolve_cohort_mode(None) == expected


class TestContextEnvPlumbing:
    def test_workers_env_builds_process_executor(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        ctx = ExperimentContext(preset="test", n_bank_configs=2)
        assert isinstance(ctx.executor, ProcessExecutor)
        assert ctx.executor.n_workers == 3

    def test_workers_unset_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        ctx = ExperimentContext(preset="test", n_bank_configs=2)
        assert isinstance(ctx.executor, SerialExecutor)

    def test_workers_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError):
            ExperimentContext(preset="test", n_bank_configs=2)

    def test_bank_cache_env_used_when_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BANK_CACHE", str(tmp_path))
        ctx = ExperimentContext(preset="test", n_bank_configs=2)
        assert ctx.bank_store is not None
        assert str(ctx.bank_store.cache_dir) == str(tmp_path)

    def test_bank_cache_empty_env_means_no_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_BANK_CACHE", "")
        ctx = ExperimentContext(preset="test", n_bank_configs=2)
        assert ctx.bank_store is None

    def test_cohort_mode_env_flows_into_context(self, monkeypatch):
        monkeypatch.setenv(COHORT_VECTOR_ENV, "fused")
        ctx = ExperimentContext(preset="test", n_bank_configs=2)
        assert ctx.cohort_mode == "fused"


class TestExperimentsCliFlags:
    def test_cohort_mode_choices(self):
        parser = cli_build_parser()
        args = parser.parse_args(["--artifact", "fig8", "--cohort-mode", "fused"])
        assert args.cohort_mode == "fused"
        with pytest.raises(SystemExit):
            parser.parse_args(["--artifact", "fig8", "--cohort-mode", "lockstep"])

    def test_methods_parsed(self):
        args = cli_build_parser().parse_args(
            ["--artifact", "fig8", "--methods", "rs,fedex,fedpop"]
        )
        assert args.methods == "rs,fedex,fedpop"

    def test_methods_rejects_unknown(self, capsys):
        assert cli_main(["--artifact", "fig8", "--methods", "rs,frobnicate"]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_methods_rejects_non_comparison_artifact(self, capsys):
        assert cli_main(["--artifact", "fig3", "--methods", "rs"]) == 2
        assert "--methods" in capsys.readouterr().err


class TestExampleParsers:
    def test_method_comparison_flags(self):
        mod = load_example("method_comparison")
        args = mod.build_parser().parse_args(
            ["--methods", "rs,fedpop", "--cohort-mode", "fused", "--workers", "2"]
        )
        assert args.methods == "rs,fedpop"
        assert args.cohort_mode == "fused"
        assert args.workers == 2
        assert mod.parse_methods(args.methods) == ("rs", "fedpop")
        with pytest.raises(SystemExit):
            mod.parse_methods("rs,frobnicate")
        with pytest.raises(SystemExit):
            mod.build_parser().parse_args(["--cohort-mode", "lockstep"])

    def test_method_comparison_default_methods_registered(self):
        mod = load_example("method_comparison")
        defaults = mod.parse_methods(mod.build_parser().parse_args([]).methods)
        assert set(defaults) <= set(METHODS)

    def test_population_tuning_flags(self):
        mod = load_example("population_tuning")
        args = mod.build_parser().parse_args(
            ["--population", "6", "--rounds-per-step", "3", "--cohort-mode", "fused"]
        )
        assert args.population == 6
        assert args.rounds_per_step == 3
        assert args.cohort_mode == "fused"

    def test_full_reproduction_flags(self):
        mod = load_example("full_reproduction")
        parser = getattr(mod, "build_parser", None)
        if parser is None:
            pytest.skip("full_reproduction has no build_parser")
        args = parser().parse_args(["--cohort-mode", "serial", "--workers", "4"])
        assert args.cohort_mode == "serial"
        assert args.workers == 4


class TestPopulationExampleRuns:
    @pytest.mark.slow
    def test_population_example_end_to_end(self, capsys):
        mod = load_example("population_tuning")
        mod.main(["--preset", "test", "--population", "3", "--rounds-per-step", "2"])
        out = capsys.readouterr().out
        assert "fedex" in out and "fedpop" in out


class TestImportCost:
    def test_cli_import_does_not_load_scipy(self):
        """scipy is imported where it is used (GP-EI, TPE, Spearman), so
        starting the CLI does not pay for ``scipy.stats``."""
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC_DIR))
        code = "import sys, repro.experiments.cli; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
