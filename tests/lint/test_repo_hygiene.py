"""Tier-1 guards on what the repository ships.

* No generated files are tracked in git. Bytecode is rebuilt by every
  interpreter run, so a tracked ``.pyc`` goes stale at the next edit
  and shows up as noise in every diff. The root ``.gitignore`` keeps
  new ones out; this test catches one that is added by force. It skips
  outside a git checkout (an unpacked archive has no index to inspect).
* Every runtime dependency in ``pyproject.toml`` is imported by some
  module under ``src/``, so a dependency cannot outlive its last user.
* Every ``python -m repro ...`` command in a fenced block of the README
  or ``docs/`` parses with the real CLI parser, so a removed flag or
  subcommand cannot linger in the documentation. Nothing is executed.
* Every program name the end-to-end benchmark (``perfbench/``) imports
  or wraps still resolves, and the server command line it launches
  still parses, so a deletion in ``src/`` cannot break a benchmark run
  that tier-1 never starts.
"""

import ast
import contextlib
import importlib
import io
import re
import shlex
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import _build_parser
from repro.core import stpt

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


_FENCED_BLOCK = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _documented_cli_examples() -> list[tuple[str, str]]:
    """(file, command) for every ``python -m repro`` line in a fenced
    block; backslash continuations are joined and lines with a ``...``
    placeholder are skipped."""
    examples = []
    for path in [REPO_ROOT / "README.md", *sorted(REPO_ROOT.glob("docs/*.md"))]:
        text = path.read_text(encoding="utf-8")
        for block in _FENCED_BLOCK.findall(text):
            for line in block.replace("\\\n", " ").splitlines():
                line = line.strip()
                if line.startswith("python -m repro ") and "..." not in line:
                    examples.append((path.relative_to(REPO_ROOT).as_posix(), line))
    return examples


def test_documented_cli_examples_parse():
    examples = _documented_cli_examples()
    assert examples, "no `python -m repro` examples found in README.md or docs/"
    parser = _build_parser()
    stale = []
    for source, line in examples:
        argv = shlex.split(line, comments=True)[3:]
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                parser.parse_args(argv)
        except SystemExit as exit_info:
            if exit_info.code:
                stale.append(f"{source}: {line}")
    assert not stale, "documented commands the CLI rejects:\n" + "\n".join(stale)


#: The top-level modules ``perfbench/`` puts on ``sys.path``.
_PERFBENCH_MODULES = (
    "bench",
    "measure",
    "publish_phase",
    "serve_launcher",
    "serve_phase",
    "spans",
)


@pytest.fixture()
def perfbench_modules(monkeypatch):
    """Import perfbench's modules; leave ``sys.path``/``sys.modules`` as found."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    saved = {
        name: sys.modules.pop(name)
        for name in _PERFBENCH_MODULES
        if name in sys.modules
    }
    try:
        yield {
            name: importlib.import_module(name)
            for name in _PERFBENCH_MODULES
        }
    finally:
        for name in _PERFBENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_perfbench_hooks_resolve(perfbench_modules, tmp_path):
    """A traced perfbench run wraps ~20 program names; installing them
    raises AttributeError on the first one a change removed."""
    spans = perfbench_modules["spans"]
    with spans.Tracing(tmp_path) as tracing:
        tracing.install_publish()
        tracing.install_serve()
        patches = list(tracing._patches)
    assert (stpt, "execute") in [(owner, attr) for owner, attr, __ in patches]
    left_wrapped = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in patches
        if getattr(owner, attr) is not original
    ]
    assert not left_wrapped, f"perfbench left wrappers installed: {left_wrapped}"

    run = perfbench_modules["bench"].Run(
        SimpleNamespace(workload="serve", seed=1, seconds=6, smoke=True),
        tmp_path,
        tmp_path,
    )
    argv = run.server_argv(None)
    assert argv[1:3] == ["-m", "repro"]
    args = _build_parser().parse_args([*argv[3:], "--release", "a=b"])
    assert (args.command, args.port, args.release) == ("serve", 0, ["a=b"])
