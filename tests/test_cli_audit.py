"""CLI integration of the adversarial audit suite.

``repro audit run`` is a CI gate: exit 0 means the measured privacy is
consistent with the verdict the invocation asked for (honest runs must
show no contradiction; ``--break-mode`` runs must be flagged), exit 1
means it is not. Trial counts here are the smallest the assertions
tolerate — the statistical heavy lifting is covered by the audit unit
tests, this file pins the command surface.
"""

import json

import pytest

from repro.cli import main


class TestAuditRun:
    def test_honest_scenario_passes(self, capsys):
        assert main([
            "audit", "run", "--trials", "60",
            "--shadows", "10", "--challenges", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "epsilon_lower_bound" in out
        assert "ok: claimed eps never contradicted" in out

    def test_forgot_noise_is_flagged(self, capsys):
        assert main([
            "audit", "run", "--break-mode", "forgot-noise",
            "--trials", "120",
        ]) == 0
        assert "ok: forgot-noise flagged" in capsys.readouterr().out

    def test_undetected_break_mode_fails(self, capsys):
        """Half-scale noise needs ~700 trials; at 20 the audit cannot
        flag it and the inverted verdict must exit non-zero."""
        assert main([
            "audit", "run", "--break-mode", "half-scale", "--trials", "20",
        ]) == 1
        assert "NOT flagged" in capsys.readouterr().err

    def test_out_writes_json_rows(self, tmp_path, capsys):
        out = tmp_path / "audit.json"
        assert main([
            "audit", "run", "--trials", "40",
            "--shadows", "10", "--challenges", "20",
            "--out", str(out),
        ]) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["claimed_epsilon"] == pytest.approx(1.7)
        assert "epsilon_lower_bound" in rows[0]

    def test_unknown_scenario_is_a_one_line_error(self, capsys):
        assert main(["audit", "run", "--scenario", "no-such"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_audit_scenario_rejected(self, capsys):
        assert main([
            "audit", "run", "--scenario", "bench-trace-overhead",
            "--trials", "20",
        ]) == 1
        assert "kind" in capsys.readouterr().err


class TestAuditFrontier:
    def test_frontier_table_and_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "frontier.json"
        assert main([
            "audit", "frontier", "--trials", "20",
            "--shadows", "10", "--challenges", "20",
            "--out", str(out),
        ]) == 0
        table = capsys.readouterr().out
        assert "mre_percent" in table
        assert "dp_advantage_bound" in table
        rows = json.loads(out.read_text())
        assert len(rows) == 4
        assert [row["claimed_epsilon"] for row in rows] == sorted(
            row["claimed_epsilon"] for row in rows
        )
