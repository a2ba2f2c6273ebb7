"""Tier-1 guards on what the repository ships.

* No generated files are tracked in git. Bytecode is rebuilt by every
  interpreter run, so a tracked ``.pyc`` goes stale at the next edit
  and shows up as noise in every diff. The root ``.gitignore`` keeps
  new ones out; this test catches one that is added by force. It skips
  outside a git checkout (an unpacked archive has no index to inspect).
* Every runtime dependency in ``pyproject.toml`` is imported by some
  module under ``src/``, so a dependency cannot outlive its last user.
"""

import ast
import re
import shutil
import subprocess
import tomllib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _tracked_files() -> list[str]:
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    toplevel = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "--show-toplevel"],
        capture_output=True,
        text=True,
    )
    if toplevel.returncode != 0 or Path(toplevel.stdout.strip()) != REPO_ROOT:
        pytest.skip("not running from a git checkout of this repository")
    listed = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "ls-files"],
        capture_output=True,
        text=True,
        check=True,
    )
    return listed.stdout.splitlines()


def test_no_bytecode_is_tracked():
    bytecode = [
        path
        for path in _tracked_files()
        if path.endswith(".pyc") or "__pycache__" in path.split("/")
    ]
    assert not bytecode, (
        f"{len(bytecode)} bytecode files are tracked, e.g. {bytecode[:3]}; "
        "untrack them with `git rm -r --cached`"
    )


def _imported_top_level_modules(root: Path) -> set[str]:
    names: set[str] = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_every_runtime_dependency_is_imported():
    pyproject = tomllib.loads(
        (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )
    requirements = pyproject["project"]["dependencies"]
    distributions = [
        re.split(r"[\s\[<>=!~;]", requirement, maxsplit=1)[0]
        for requirement in requirements
    ]
    imported = _imported_top_level_modules(REPO_ROOT / "src")
    unused = [
        name
        for name in distributions
        if name.lower().replace("-", "_") not in imported
    ]
    assert distributions, "pyproject.toml declares no runtime dependencies"
    assert not unused, (
        f"runtime dependencies imported nowhere under src/: {unused}; "
        "drop them from [project].dependencies"
    )
