"""Benchmark trend histories and the ``repro bench NAME`` write path."""

import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.experiments import bench
from repro.experiments.trend import (
    Threshold,
    append_result,
    check_regression,
    compact_entry,
    load_history,
    metric_value,
    trend_rows,
)

SPEEDUP = Threshold(metrics=("speedup",), floor=2.0)


class TestThreshold:
    def test_needs_a_metric(self):
        with pytest.raises(ConfigurationError):
            Threshold(metrics=(), floor=1.0)

    def test_needs_a_bound(self):
        with pytest.raises(ConfigurationError):
            Threshold(metrics=("speedup",))


class TestMetricValue:
    def test_dotted_paths_walk_nested_payloads(self):
        payload = {"kernels": {"make_windows": {"speedup": 4.5}}}
        assert metric_value(payload, "kernels.make_windows.speedup") == 4.5

    def test_missing_and_non_numeric_yield_none(self):
        assert metric_value({}, "speedup") is None
        assert metric_value({"speedup": "fast"}, "speedup") is None
        assert metric_value({"ok": True}, "ok") is None


class TestHistory:
    def test_history_accumulates_across_runs(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        for run in range(3):
            append_result(
                path, {"commit": f"{run}" * 40, "wall_seconds": 1.0,
                       "speedup": 3.0},
                SPEEDUP,
            )
        assert len(load_history(path)) == 3
        # The newest payload stays flat at the top level.
        assert json.loads(path.read_text())["commit"] == "2" * 40

    def test_corrupt_file_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("not json")
        with pytest.raises(ConfigurationError):
            load_history(path)

    @pytest.mark.parametrize("history", [None, {"commit": "a"}])
    def test_file_without_a_history_list_is_a_configuration_error(
        self, tmp_path, history
    ):
        payload = {"commit": "a" * 40, "wall_seconds": 1.5, "speedup": 3.0}
        if history is not None:
            payload["history"] = history
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="history"):
            load_history(path)

    def test_trend_rows_union_metric_columns(self):
        rows = trend_rows([
            {"commit": "a" * 40, "wall_seconds": 1.0, "metrics": {"x": 1.0}},
            {"commit": None, "wall_seconds": 2.0, "metrics": {"y": 2.0}},
        ])
        assert rows[0]["commit"] == "a" * 12
        assert rows[1]["commit"] == "-"
        assert set(rows[0]) >= {"commit", "wall_s", "x", "y"}


class TestCheckRegression:
    def test_healthy_history_passes(self):
        history = [compact_entry({"speedup": 2.5}, SPEEDUP)]
        assert check_regression("x", history, SPEEDUP) == []

    def test_floor_violation_reported(self):
        history = [compact_entry({"speedup": 1.5}, SPEEDUP)]
        failures = check_regression("x", history, SPEEDUP)
        assert len(failures) == 1
        assert "regressed below" in failures[0]

    def test_ceiling_violation_reported(self):
        ceiling = Threshold(metrics=("overhead_percent",), ceiling=2.0)
        history = [compact_entry({"overhead_percent": 3.5}, ceiling)]
        assert "exceeds" in check_regression("x", history, ceiling)[0]

    def test_missing_metric_reported(self):
        history = [compact_entry({}, SPEEDUP)]
        assert "missing" in check_regression("x", history, SPEEDUP)[0]

    def test_ratchet_catches_a_drop_above_the_absolute_floor(self):
        history = [
            compact_entry({"speedup": 8.0}, SPEEDUP),
            compact_entry({"speedup": 4.0}, SPEEDUP),
        ]
        failures = check_regression("x", history, SPEEDUP)
        assert len(failures) == 1
        assert "fell more than 20%" in failures[0]

    def test_ratchet_tolerates_drift_within_slack(self):
        history = [
            compact_entry({"speedup": 5.0}, SPEEDUP),
            compact_entry({"speedup": 4.2}, SPEEDUP),
        ]
        assert check_regression("x", history, SPEEDUP) == []

    def test_ratchet_ceiling_catches_a_rise(self):
        ceiling = Threshold(metrics=("overhead_percent",), ceiling=10.0)
        history = [
            compact_entry({"overhead_percent": 2.0}, ceiling),
            compact_entry({"overhead_percent": 4.0}, ceiling),
        ]
        failures = check_regression("x", history, ceiling)
        assert "rose more than 20%" in failures[0]


class TestHardwareProvenance:
    def test_cpu_count_travels_into_entry_and_rows(self):
        entry = compact_entry({"speedup": 4.0, "cpu_count": 8}, SPEEDUP)
        assert entry["cpu_count"] == 8
        assert trend_rows([entry])[0]["cpus"] == 8

    def test_ratchet_base_is_the_previous_entry_on_any_core_count(self):
        # A single-core entry is enforced and anchors the ratchet like
        # any other: 4.0 after 1.07 passes, 4.0 after 8.0 does not.
        low = compact_entry({"speedup": 1.07, "cpu_count": 1}, SPEEDUP)
        high = compact_entry({"speedup": 8.0, "cpu_count": 8}, SPEEDUP)
        newest = compact_entry({"speedup": 4.0, "cpu_count": 8}, SPEEDUP)
        assert check_regression("x", [high, low, newest], SPEEDUP) == []
        failures = check_regression("x", [low, high, newest], SPEEDUP)
        assert len(failures) == 1
        assert "previous recorded 8" in failures[0]
        assert "regressed below" in check_regression("x", [low], SPEEDUP)[0]


@pytest.fixture()
def fake_benchmark(monkeypatch):
    """A registered benchmark whose result and commit are scripted."""
    state = {"speedup": 3.0, "commit": "a" * 40}
    monkeypatch.setitem(
        bench.BENCHMARKS, "fake_trend",
        lambda workers=None: {"speedup": state["speedup"]},
    )
    monkeypatch.setitem(bench.TREND_THRESHOLDS, "fake_trend", SPEEDUP)
    monkeypatch.setattr(bench, "_git_commit", lambda: state["commit"])
    return state


class TestBenchTrendCli:
    def test_two_commits_accumulate_two_entries(
        self, fake_benchmark, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_fake_trend.json"
        assert main(["bench", "fake_trend", "--out", str(out)]) == 0
        fake_benchmark["commit"] = "b" * 40
        fake_benchmark["speedup"] = 2.7
        assert main(["bench", "fake_trend", "--out", str(out)]) == 0
        history = json.loads(out.read_text())["history"]
        assert [e["commit"][:1] for e in history] == ["a", "b"]
        assert [e["metrics"]["speedup"] for e in history] == [3.0, 2.7]
        assert "a" * 12 in capsys.readouterr().out

    def test_injected_regression_fails_the_run(
        self, fake_benchmark, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_fake_trend.json"
        assert main(["bench", "fake_trend", "--out", str(out)]) == 0
        fake_benchmark["speedup"] = 1.1
        assert main(["bench", "fake_trend", "--out", str(out)]) == 1
        assert "regressed below" in capsys.readouterr().err
        # The regressing run still lands in the history.
        assert len(json.loads(out.read_text())["history"]) == 2

    def test_plain_run_appends_to_a_checked_in_history(
        self, fake_benchmark, tmp_path
    ):
        out = tmp_path / "BENCH_fake_trend.json"
        entry = compact_entry(
            {"commit": "0" * 40, "wall_seconds": 1.0, "speedup": 3.0},
            SPEEDUP,
        )
        out.write_text(json.dumps({"speedup": 3.0, "history": [entry] * 2}))
        assert main(["bench", "fake_trend", "--out", str(out)]) == 0
        history = json.loads(out.read_text())["history"]
        assert [e["commit"][:1] for e in history] == ["0", "0", "a"]

    def test_file_without_history_is_refused_before_the_run(
        self, fake_benchmark, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_fake_trend.json"
        snapshot = json.dumps({"commit": "0" * 40, "speedup": 3.0})
        out.write_text(snapshot)
        assert main(["bench", "fake_trend", "--out", str(out)]) == 1
        assert "history" in capsys.readouterr().err
        assert out.read_text() == snapshot

    def test_trend_flag_is_gone(self, fake_benchmark, tmp_path):
        out = tmp_path / "BENCH_fake_trend.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "fake_trend", "--trend", "--out", str(out)])
        assert exit_info.value.code == 2
        assert not out.exists()


class TestBoundsCheckedOnce:
    """A bench reports its timing; only the registered ceiling judges it,
    after the run is in the history."""

    @pytest.fixture()
    def clean_lint(self, monkeypatch):
        import repro.lint.engine

        clean = SimpleNamespace(
            findings=[], warnings=[], files_checked=3, suppressed=0
        )
        monkeypatch.setattr(
            repro.lint.engine, "run_lint", lambda paths, config=None: clean
        )
        monkeypatch.setattr(bench, "_best_of", lambda fn, repeats=3: 11.0)
        monkeypatch.setattr(bench, "_git_commit", lambda: "c" * 40)

    def test_slow_lint_pass_returns_its_payload(self, clean_lint):
        payload = bench.bench_lint_flow()
        assert payload["flow_seconds"] == 11.0
        assert payload["clean"] is True

    def test_slow_lint_pass_is_recorded_then_refused(
        self, clean_lint, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_lint_flow.json"
        assert main(["bench", "lint_flow", "--out", str(out)]) == 1
        (entry,) = json.loads(out.read_text())["history"]
        assert entry["metrics"]["flow_seconds"] == 11.0
        assert "exceeds" in capsys.readouterr().err

    def test_costly_instrumentation_returns_its_payload(self, monkeypatch):
        monkeypatch.setattr(
            bench, "_per_call_seconds", lambda fn, calls=50_000: 1e-3
        )
        payload = bench.bench_trace_overhead()
        assert payload["bit_identical"] is True
        threshold = bench.TREND_THRESHOLDS["trace_overhead"]
        assert payload["overhead_percent"] > threshold.ceiling
        failures = check_regression(
            "trace_overhead", [compact_entry(payload, threshold)], threshold
        )
        assert "exceeds" in failures[0]
