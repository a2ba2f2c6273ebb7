"""CLI integration of the scenario registry.

The golden test at the bottom is the contract the registry exists for:
``--scenario NAME`` and the equivalent explicit flag spelling are two
spellings of one run and must produce bit-identical releases.
"""

import argparse

import numpy as np
import pytest

from repro.cli import _finalize_args, main
from repro.data.io import load_matrix
from repro.scenarios import get_scenario, loads, scenario_names


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "ca.npz"
    assert main([
        "generate", "--dataset", "CA", "--days", "24",
        "--seed", "5", "--out", str(path),
    ]) == 0
    return path


class TestScenariosList:
    def test_lists_every_registered_scenario(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out
        assert f"{len(scenario_names())} scenario(s)" in out

    def test_kind_filter(self, capsys):
        assert main(["scenarios", "list", "--kind", "bench"]) == 0
        out = capsys.readouterr().out
        assert "bench-trace-overhead" in out
        assert "fig6-cer" not in out

    def test_audit_kind_filter(self, capsys):
        assert main(["scenarios", "list", "--kind", "audit"]) == 0
        out = capsys.readouterr().out
        assert "audit-composed-stpt" in out
        assert "audit-composed-sharded" in out
        assert "audit-frontier" in out
        assert "bench-trace-overhead" not in out


class TestScenariosShow:
    @pytest.mark.parametrize(
        "name",
        ["fig6-cer", "bench-trace-overhead", "audit-composed-stpt",
         "audit-frontier"],
    )
    def test_show_output_reparses_into_an_equal_spec(self, name, capsys):
        assert main(["scenarios", "show", name]) == 0
        out = capsys.readouterr().out
        assert loads(out) == get_scenario(name)

    def test_unknown_scenario_is_a_one_line_error(self, capsys):
        assert main(["scenarios", "show", "fig6-mars"]) == 1
        assert "error:" in capsys.readouterr().err


class TestFinalizeArgs:
    """Precedence: explicit flag > --scenario value > builtin default."""

    def _namespace(self, **overrides):
        keys = (
            "scenario grid distribution t_train epsilon_pattern "
            "epsilon_sanitize quantization window epochs embed_dim "
            "hidden_dim seed mechanism queries"
        ).split()
        values = dict.fromkeys(keys)
        values.update(overrides)
        return argparse.Namespace(**values)

    def test_builtin_defaults_without_a_scenario(self):
        args = self._namespace()
        _finalize_args(args)
        assert args.grid == 32
        assert args.epsilon_sanitize == [20.0]
        assert args.mechanism == "STPT"

    def test_scenario_provides_the_defaults(self):
        args = self._namespace(scenario="bench-trace-overhead")
        _finalize_args(args)
        assert args.grid == 8
        assert args.t_train == 16
        assert args.epsilon_sanitize == [10.0, 20.0]
        assert args.quantization == 6
        assert args.window == 3
        assert args.seed == 1234

    def test_explicit_flag_beats_the_scenario(self):
        args = self._namespace(scenario="bench-trace-overhead", seed=3)
        _finalize_args(args)
        assert args.seed == 3
        assert args.grid == 8


class TestGoldenPublish:
    def test_scenario_and_legacy_spellings_are_bit_identical(
        self, dataset_file, tmp_path
    ):
        by_scenario = tmp_path / "scn" / "release.npz"
        by_flags = tmp_path / "leg" / "release.npz"
        by_scenario.parent.mkdir()
        by_flags.parent.mkdir()
        assert main([
            "publish", "--data", str(dataset_file),
            "--scenario", "bench-trace-overhead",
            "--out", str(by_scenario),
        ]) == 0
        assert main([
            "publish", "--data", str(dataset_file),
            "--grid", "8", "--distribution", "uniform", "--t-train", "16",
            "--epsilon-pattern", "10", "--epsilon-sanitize", "10", "20",
            "--quantization", "6", "--window", "3", "--epochs", "8",
            "--embed-dim", "8", "--hidden-dim", "8", "--seed", "1234",
            "--out", str(by_flags),
        ]) == 0
        for epsilon in ("eps10", "eps20"):
            left = load_matrix(by_scenario.parent / f"release-{epsilon}.npz")
            right = load_matrix(by_flags.parent / f"release-{epsilon}.npz")
            np.testing.assert_array_equal(left.values, right.values)


class TestSuffixed:
    def test_dotted_directory_names_survive(self):
        from repro.cli import _suffixed

        assert _suffixed("out.v2/release.npz", 5.0) == "out.v2/release-eps5.npz"
        assert _suffixed("release.npz", 2.5) == "release-eps2.5.npz"
        assert _suffixed("plain", 5.0) == "plain-eps5"
