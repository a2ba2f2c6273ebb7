"""The ``python -m repro.lint`` front end."""

import json

import pytest

from repro.lint.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main
from repro.lint.registry import registered_rule_ids
from tests.lint.conftest import write_module

PYPROJECT = """\
[tool.repro-lint]
include = ["src"]
"""


@pytest.fixture()
def project(tmp_path):
    (tmp_path / "pyproject.toml").write_text(PYPROJECT, encoding="utf-8")
    write_module(
        tmp_path,
        "src/pkg/clean.py",
        "def fine(count):\n    return count == 0\n",
    )
    return tmp_path


def add_bad_module(root):
    return write_module(
        root,
        "src/pkg/bad.py",
        "def leak(rng):\n    return rng.laplace(0.0, 1.0)\n",
    )


class TestLintCli:
    def test_clean_tree_exits_zero(self, project, capsys):
        code = main(
            [str(project / "src"), "--config", str(project / "pyproject.toml")]
        )
        assert code == EXIT_CLEAN
        assert "clean: 1 files checked" in capsys.readouterr().out

    def test_findings_exit_one_with_location(self, project, capsys):
        add_bad_module(project)
        code = main(
            [str(project / "src"), "--config", str(project / "pyproject.toml")]
        )
        assert code == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "src/pkg/bad.py:2:11: DP001" in out

    def test_json_format(self, project, capsys):
        add_bad_module(project)
        code = main(
            [
                str(project / "src"),
                "--config", str(project / "pyproject.toml"),
                "--format", "json",
            ]
        )
        assert code == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is False
        assert payload["findings"][0]["rule"] == "DP001"

    def test_select_restricts_rules(self, project, capsys):
        add_bad_module(project)
        code = main(
            [
                str(project / "src"),
                "--config", str(project / "pyproject.toml"),
                "--select", "py001,num001",
            ]
        )
        assert code == EXIT_CLEAN
        capsys.readouterr()

    def test_unknown_rule_is_usage_error(self, project, capsys):
        code = main(
            [
                str(project / "src"),
                "--config", str(project / "pyproject.toml"),
                "--select", "NOPE001",
            ]
        )
        assert code == EXIT_ERROR
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, project, capsys):
        code = main(
            [str(project / "src"), "--config", str(project / "missing.toml")]
        )
        assert code == EXIT_ERROR
        assert "config file not found" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, project, capsys):
        code = main(
            [
                str(project / "typo"),
                "--config", str(project / "pyproject.toml"),
            ]
        )
        assert code == EXIT_ERROR
        assert "do not exist" in capsys.readouterr().err

    def test_flow_switch_is_gone(self, project, capsys):
        # Flow rules run on every invocation; there is no switch for them.
        with pytest.raises(SystemExit) as exit_info:
            main([str(project / "src"), "--flow"])
        assert exit_info.value.code == EXIT_ERROR
        assert "unrecognized arguments: --flow" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in registered_rule_ids():
            assert rule_id in out
