"""Every user-facing entry point renders ``--help`` and exits 0."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = sorted(p.name for p in (ROOT / "tools").glob("*.py"))
SUBCOMMANDS = ["store", "verify", "observe", "worker"]
#: Nested parsers behind a subcommand, rendered the same way.
NESTED = ["observe --serve", "observe registry", "observe registry prune",
          "verify check", "verify litmus", "verify fuzz", "verify repro",
          "verify selftest"]


def _help(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv, "--help"], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("subcommand", [None, *SUBCOMMANDS, *NESTED])
def test_experiments_cli_help(subcommand):
    argv = ["-m", "repro.experiments"] + (subcommand.split() if subcommand
                                          else [])
    proc = _help(*argv)
    assert proc.returncode == 0, proc.stderr
    # The usage line names the parser that rendered, so a nested
    # command cannot pass by falling back to its parent's help.
    prog = " ".join(["python -m repro.experiments", subcommand or ""])
    assert proc.stdout.startswith(f"usage: {prog.strip()} "), proc.stdout


@pytest.mark.parametrize("tool", TOOLS)
def test_tool_help(tool):
    proc = _help(f"tools/{tool}")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
