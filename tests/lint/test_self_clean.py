"""Tier-1 guard: the shipped tree must lint clean, flow rules included.

This is the test that wires the linter into CI — a regression anywhere
in ``src/`` or ``tests/`` (an off-ledger noise draw, a hard-coded
epsilon split, a global RNG call, a raw value flowing into a release
writer) fails the default ``pytest`` run with the offending
``path:line`` in the message. Warnings are held to zero too: every
suppression must be live and carry a written justification.
"""

from pathlib import Path

from repro.lint.config import load_config
from repro.lint.engine import run_lint
from repro.lint.reporters import render_text

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_shipped_tree_is_lint_clean():
    config = load_config(start=REPO_ROOT)
    assert config.root == REPO_ROOT
    result = run_lint(
        [REPO_ROOT / "src", REPO_ROOT / "tests"], config=config
    )
    assert result.ok, "\n" + render_text(result)
    assert not result.warnings, "\n" + render_text(result)
    # Sanity-check the run actually saw the tree (not an empty glob).
    assert result.files_checked > 100
