"""Tier-1 guard: no generated files are tracked in git.

Bytecode is rebuilt by every interpreter run, so a tracked ``.pyc``
goes stale at the next edit and shows up as noise in every diff. The
root ``.gitignore`` keeps new ones out; this test catches one that is
added by force. It skips outside a git checkout (an unpacked archive
has no index to inspect).
"""

import shutil
import subprocess
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
