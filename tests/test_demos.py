"""The two walkthroughs in demos/ and the README's Library example run to
completion against the library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("script", ["words_and_languages.py", "deciding_inclusions.py"])
def test_demo_runs(script, tmp_path):
    proc = _run([str(ROOT / "demos" / script)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    if script == "words_and_languages.py":
        assert (tmp_path / "inf-a.dot").is_file()


def test_readme_library_example_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    proc = _run(["-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
