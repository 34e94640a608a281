"""Every script under examples/ runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache import CACHE_DIR_ENV

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{CACHE_DIR_ENV: str(tmp_path / "cache")})
    completed = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
