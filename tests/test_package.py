"""The package root imports nothing, so each module must import on its own."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "replay_shield"
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def test_every_module_is_listed():
    assert MODULES == ["analyzer", "cache", "cli", "configtext", "httpmsg", "proxy", "upstream", "urls", "wire",
                       "workload"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"import replay_shield.{module}"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
