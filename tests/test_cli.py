"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import FIGURE_RUNNERS, main
from repro.data.io import load_matrix


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "ca.npz"
    code = main([
        "generate", "--dataset", "CA", "--days", "28",
        "--seed", "1", "--out", str(path),
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_dataset(self, dataset_file):
        assert dataset_file.exists()

    def test_output_message(self, tmp_path, capsys):
        path = tmp_path / "mi.npz"
        main(["generate", "--dataset", "MI", "--days", "7",
              "--seed", "0", "--out", str(path)])
        out = capsys.readouterr().out
        assert "250 households" in out

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--dataset", "NYC", "--out", str(tmp_path / "x.npz")])


PUBLISH_ARGS = [
    "--grid", "8", "--t-train", "16", "--window", "3",
    "--epochs", "1", "--embed-dim", "8", "--hidden-dim", "8",
    "--quantization", "5", "--seed", "2",
]


class TestPublish:
    def test_publish_writes_release(self, dataset_file, tmp_path):
        out = tmp_path / "release.npz"
        code = main([
            "publish", "--data", str(dataset_file), "--out", str(out),
            *PUBLISH_ARGS,
        ])
        assert code == 0
        release = load_matrix(out)
        assert release.shape == (8, 8, 12)

    def test_publish_with_csv(self, dataset_file, tmp_path):
        out = tmp_path / "release.npz"
        csv = tmp_path / "release.csv"
        code = main([
            "publish", "--data", str(dataset_file), "--out", str(out),
            "--csv", str(csv), *PUBLISH_ARGS,
        ])
        assert code == 0
        assert csv.exists()

    def test_missing_data_file_is_an_error(self, tmp_path, capsys):
        code = main([
            "publish", "--data", str(tmp_path / "nope.npz"),
            "--out", str(tmp_path / "out.npz"), *PUBLISH_ARGS,
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestPublishSweep:
    """Several ``--epsilon-sanitize`` values fan out into a sweep."""

    def test_multi_epsilon_writes_suffixed_releases(
        self, dataset_file, tmp_path
    ):
        out = tmp_path / "release.npz"
        code = main([
            "publish", "--data", str(dataset_file), "--out", str(out),
            "--epsilon-sanitize", "5", "10", *PUBLISH_ARGS,
        ])
        assert code == 0
        assert not out.exists()  # only the suffixed files are written
        for eps in (5, 10):
            release = load_matrix(tmp_path / f"release-eps{eps}.npz")
            assert release.shape == (8, 8, 12)

    def test_parallel_sweep_matches_serial(self, dataset_file, tmp_path):
        serial_out = tmp_path / "serial.npz"
        parallel_out = tmp_path / "parallel.npz"
        sweep = ["--epsilon-sanitize", "5", "10", *PUBLISH_ARGS]
        main(["publish", "--data", str(dataset_file),
              "--out", str(serial_out), *sweep])
        main(["publish", "--data", str(dataset_file),
              "--out", str(parallel_out), "--workers", "2", *sweep])
        for eps in (5, 10):
            np.testing.assert_array_equal(
                load_matrix(tmp_path / f"serial-eps{eps}.npz").values,
                load_matrix(tmp_path / f"parallel-eps{eps}.npz").values,
            )

    def test_sharded_publish_bit_identical_across_workers(
        self, dataset_file, tmp_path
    ):
        serial_out = tmp_path / "serial.npz"
        parallel_out = tmp_path / "parallel.npz"
        sharded = ["--shard-depth", "1", *PUBLISH_ARGS]
        main(["publish", "--data", str(dataset_file),
              "--out", str(serial_out), *sharded])
        main(["publish", "--data", str(dataset_file),
              "--out", str(parallel_out), "--workers", "2", *sharded])
        np.testing.assert_array_equal(
            load_matrix(serial_out).values,
            load_matrix(parallel_out).values,
        )

    def test_pipeline_run_prints_per_epsilon_tables(
        self, dataset_file, tmp_path, capsys
    ):
        code = main([
            "pipeline", "run", "--data", str(dataset_file),
            "--epsilon-sanitize", "5", "10", *PUBLISH_ARGS,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "epsilon_sanitize = 5" in out
        assert "epsilon_sanitize = 10" in out
        assert out.count("stpt/sanitize") == 2


class TestBench:
    def test_bench_writes_stamped_json(self, tmp_path, monkeypatch, capsys):
        import json

        from repro.experiments import bench as bench_module

        monkeypatch.setitem(
            bench_module.BENCHMARKS,
            "parallel_sweep",
            lambda workers=None: {"benchmark": "parallel_sweep", "speedup": 5.0},
        )
        out = tmp_path / "BENCH_parallel_sweep.json"
        code = main(["bench", "parallel_sweep", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "parallel_sweep"
        assert payload["wall_seconds"] >= 0.0
        assert "commit" in payload
        assert "speedup 5.00x" in capsys.readouterr().out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "does-not-exist"])


class TestEvaluate:
    def test_end_to_end(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "release.npz"
        main(["publish", "--data", str(dataset_file), "--out", str(out),
              *PUBLISH_ARGS])
        code = main([
            "evaluate", "--data", str(dataset_file), "--release", str(out),
            "--grid", "8", "--t-train", "16", "--distribution", "uniform",
            "--queries", "20", "--seed", "2",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "random" in output and "mre_percent" in output

    def test_shape_mismatch_reported(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "release.npz"
        main(["publish", "--data", str(dataset_file), "--out", str(out),
              *PUBLISH_ARGS])
        code = main([
            "evaluate", "--data", str(dataset_file), "--release", str(out),
            "--grid", "8", "--t-train", "20",  # wrong horizon
            "--queries", "5", "--seed", "2",
        ])
        assert code == 2
        assert "does not match" in capsys.readouterr().err


class TestFigure:
    def test_runner_registry_covers_all_figures(self):
        expected = {
            "table2", "fig9", "fig6", "fig7", "fig8ab", "fig8c", "fig8d",
            "fig8ef", "fig8g", "fig8h", "fig8i",
            "ablation-allocation", "ablation-rollout", "ablation-attention",
            "ablation-seeds", "ablation-local-dp", "ablation-privacy-model",
            "ablation-refinement",
        }
        assert set(FIGURE_RUNNERS) == expected

    def test_table2_runs(self, capsys):
        code = main(["figure", "table2", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CER" in out and "target_mean" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestLint:
    """The ``repro lint`` subcommand delegates to repro.lint.cli."""

    @pytest.fixture()
    def lint_project(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\ninclude = ["src"]\n', encoding="utf-8"
        )
        module = tmp_path / "src" / "pkg" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "def fine(count):\n    return count == 0\n", encoding="utf-8"
        )
        return tmp_path

    def test_clean_tree_exits_zero(self, lint_project, capsys):
        code = main([
            "lint", str(lint_project / "src"),
            "--config", str(lint_project / "pyproject.toml"),
        ])
        assert code == 0
        assert "clean: 1 files checked" in capsys.readouterr().out

    def test_findings_give_nonzero_exit(self, lint_project, capsys):
        bad = lint_project / "src" / "pkg" / "bad.py"
        bad.write_text(
            "def leak(rng):\n    return rng.laplace(0.0, 1.0)\n",
            encoding="utf-8",
        )
        code = main([
            "lint", str(lint_project / "src"),
            "--config", str(lint_project / "pyproject.toml"),
        ])
        assert code == 1
        assert "src/pkg/bad.py:2:11: DP001" in capsys.readouterr().out

    def test_json_format(self, lint_project, capsys):
        import json

        code = main([
            "lint", str(lint_project / "src"),
            "--config", str(lint_project / "pyproject.toml"),
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is True

    def test_select_forwarded(self, lint_project, capsys):
        bad = lint_project / "src" / "pkg" / "bad.py"
        bad.write_text(
            "def leak(rng):\n    return rng.laplace(0.0, 1.0)\n",
            encoding="utf-8",
        )
        code = main([
            "lint", str(lint_project / "src"),
            "--config", str(lint_project / "pyproject.toml"),
            "--select", "PY001",
        ])
        assert code == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DP001" in out and "RNG001" in out


class TestReport:
    def test_filtered_report(self, tmp_path, capsys, monkeypatch):
        # the report honours the active preset; shrink it for the test
        from tests.conftest import make_tiny_preset
        import repro.experiments.report as report_module

        monkeypatch.setattr(
            report_module, "active_preset", lambda: make_tiny_preset()
        )
        out = tmp_path / "report.md"
        code = main([
            "report", "--out", str(out), "--dataset", "CA",
            "--seed", "3", "--sections", "Table 2",
        ])
        assert code == 0
        text = out.read_text()
        assert "# STPT reproduction report" in text
        assert "Table 2" in text
        assert "Figure 6" not in text  # filtered out
