"""Engine behaviour and configuration handling."""

import textwrap

import pytest

from repro.exceptions import ConfigurationError
from repro.lint.config import (
    DEFAULT_INCLUDE,
    LintConfig,
    config_from_mapping,
    find_pyproject,
    load_config,
)
from repro.lint.engine import run_lint
from repro.lint.registry import registered_rule_ids
from tests.lint.conftest import write_module

BAD_BOTH = """\
    def leak(rng, scale, items=[]):
        return rng.laplace(0.0, scale)
    """


class TestRunLint:
    def test_findings_sorted_by_location(self, tmp_path):
        write_module(
            tmp_path,
            "src/pkg/b.py",
            "def leak(rng):\n    return rng.laplace(0.0, 1.0)\n",
        )
        write_module(
            tmp_path,
            "src/pkg/a.py",
            "def leak(rng):\n    return rng.laplace(0.0, 1.0)\n",
        )
        config = LintConfig(
            root=tmp_path, include=("src",),
            rule_options={"DP001": {"allow": []}},
        )
        result = run_lint([tmp_path / "src"], config=config, enable=["DP001"])
        assert [f.path for f in result.findings] == [
            "src/pkg/a.py", "src/pkg/b.py",
        ]
        assert result.files_checked == 2

    def test_allow_list_matches_directory_prefix(self, lint_snippet):
        result = lint_snippet(BAD_BOTH, rule="DP001", allow=("src/pkg",))
        assert result.ok

    def test_allow_list_supports_glob_patterns(self, lint_snippet):
        result = lint_snippet(BAD_BOTH, rule="DP001", allow=("src/*/mod.py",))
        assert result.ok

    def test_config_enable_narrows_rules(self, tmp_path):
        write_module(tmp_path, "src/pkg/mod.py", textwrap.dedent(BAD_BOTH))
        config = LintConfig(
            root=tmp_path, include=("src",), enable=("PY001",),
            rule_options={"PY001": {"allow": []}},
        )
        result = run_lint([tmp_path / "src"], config=config)
        assert [f.rule for f in result.findings] == ["PY001"]

    def test_enable_argument_overrides_config(self, tmp_path):
        write_module(tmp_path, "src/pkg/mod.py", textwrap.dedent(BAD_BOTH))
        config = LintConfig(
            root=tmp_path, include=("src",), enable=("PY001",),
            rule_options={"DP001": {"allow": []}},
        )
        result = run_lint([tmp_path / "src"], config=config, enable=["DP001"])
        assert [f.rule for f in result.findings] == ["DP001"]

    def test_exclude_skips_files_entirely(self, tmp_path):
        write_module(tmp_path, "src/pkg/mod.py", textwrap.dedent(BAD_BOTH))
        config = LintConfig(
            root=tmp_path, include=("src",), exclude=("src/pkg",),
            rule_options={"DP001": {"allow": []}},
        )
        result = run_lint([tmp_path / "src"], config=config, enable=["DP001"])
        assert result.ok
        assert result.files_checked == 0

    def test_default_paths_come_from_include(self, tmp_path):
        write_module(tmp_path, "src/pkg/mod.py", textwrap.dedent(BAD_BOTH))
        write_module(
            tmp_path,
            "scripts/loose.py",
            "def leak(rng):\n    return rng.laplace(0.0, 1.0)\n",
        )
        config = LintConfig(
            root=tmp_path, include=("src",),
            rule_options={"DP001": {"allow": []}},
        )
        result = run_lint(config=config, enable=["DP001"])
        assert [f.path for f in result.findings] == ["src/pkg/mod.py"]

    def test_missing_explicit_path_rejected(self, tmp_path):
        config = LintConfig(root=tmp_path, include=("src",))
        with pytest.raises(ConfigurationError, match="do not exist"):
            run_lint([tmp_path / "typo"], config=config, enable=["DP001"])

    def test_missing_include_path_is_tolerated(self, tmp_path):
        # Default include paths may be absent (repo without tests/);
        # only explicitly requested paths are validated.
        config = LintConfig(root=tmp_path, include=("src", "tests"))
        result = run_lint(config=config, enable=["DP001"])
        assert result.ok
        assert result.files_checked == 0

    def test_unparseable_file_fails_the_run(self, tmp_path):
        write_module(tmp_path, "src/pkg/bad.py", "def broken(:\n")
        config = LintConfig(root=tmp_path, include=("src",))
        result = run_lint([tmp_path / "src"], config=config, enable=["DP001"])
        assert not result.ok
        assert [f.rule for f in result.findings] == ["PARSE"]
        assert result.findings[0].path == "src/pkg/bad.py"


class TestConfig:
    def test_defaults(self, tmp_path):
        config = LintConfig(root=tmp_path)
        assert config.include == DEFAULT_INCLUDE
        assert config.rule_allow("DP001", ("x",)) == ("x",)

    def test_mapping_overrides(self, tmp_path):
        data = {
            "tool": {
                "repro-lint": {
                    "include": ["src"],
                    "exclude": ["src/vendored"],
                    "enable": ["dp001", "py001"],
                    "rules": {"dp001": {"allow": ["src/noise.py"]}},
                }
            }
        }
        config = config_from_mapping(tmp_path, data)
        assert config.include == ("src",)
        assert config.exclude == ("src/vendored",)
        assert config.enable == ("DP001", "PY001")
        assert config.rule_allow("DP001", ("default",)) == ("src/noise.py",)

    def test_missing_table_gives_defaults(self, tmp_path):
        config = config_from_mapping(tmp_path, {})
        assert config.include == DEFAULT_INCLUDE
        assert config.enable is None

    def test_invalid_include_rejected(self, tmp_path):
        data = {"tool": {"repro-lint": {"include": "src"}}}
        with pytest.raises(ConfigurationError):
            config_from_mapping(tmp_path, data)

    def test_invalid_rule_table_rejected(self, tmp_path):
        data = {"tool": {"repro-lint": {"rules": {"DP001": "allow"}}}}
        with pytest.raises(ConfigurationError):
            config_from_mapping(tmp_path, data)

    def test_load_config_walks_up_to_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\ninclude = ["src"]\n', encoding="utf-8"
        )
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert find_pyproject(nested) == tmp_path / "pyproject.toml"
        config = load_config(start=nested)
        assert config.root == tmp_path.resolve()
        assert config.include == ("src",)

    def test_load_config_missing_explicit_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(explicit=tmp_path / "nope.toml")

    def test_load_config_bad_toml(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("not [ toml", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_config(explicit=pyproject)


class TestRegistry:
    def test_all_issue_rules_registered(self):
        assert set(registered_rule_ids()) == {
            "DP001", "DP002", "DP003", "NUM001", "OBS001", "PY001", "PY002",
            "RNG001", "SCN001",
            # interprocedural flow rules
            "DP100", "DP101", "DP102", "RNG100", "RNG101", "PURE001",
        }
