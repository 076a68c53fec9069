"""Every demo script runs to the end: exit code 0 and no traceback.  A demo
that prints no timings prints exactly its golden output in ``tests/data``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TIMED = {"05_full_pipeline.py"}  # prints wall-clock timings


def _golden(demo: Path) -> Path:
    return ROOT / "tests" / "data" / f"{demo.stem}.golden"


def test_demos_are_found():
    assert len(DEMOS) >= 5
    assert all(_golden(demo).exists() for demo in DEMOS if demo.name not in TIMED)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()
    if demo.name not in TIMED:
        assert proc.stdout == _golden(demo).read_text(encoding="utf-8")


def test_readme_quickstart_prints_the_query_it_shows(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    shown = block.split("print(render(query))\n", 1)[1].splitlines()[0]
    assert shown.startswith("# #combine( ")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == shown.removeprefix("# ")
