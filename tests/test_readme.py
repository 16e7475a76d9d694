"""Every README example runs, warning-free.

Each ```python block runs on its own in a fresh interpreter, and each
```json block that holds "experiments" runs through ``sumkit run`` (the
cli's main, from the checkout's src); both with a numpy overflow or
invalid-value warning made an error, and both must exit 0.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


PYTHON_BLOCKS = _blocks("python")
CONFIG_BLOCKS = [text for text in _blocks("json") if "experiments" in json.loads(text)]


def _run(args, cwd):
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], env=ENV,
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_has_python_and_config_examples():
    assert PYTHON_BLOCKS and CONFIG_BLOCKS


@pytest.mark.parametrize("code", PYTHON_BLOCKS,
                         ids=[f"python-{i}" for i in range(1, len(PYTHON_BLOCKS) + 1)])
def test_readme_python_block_runs(code, tmp_path):
    _run(["-c", code], tmp_path)


@pytest.mark.parametrize("text", CONFIG_BLOCKS,
                         ids=[f"config-{i}" for i in range(1, len(CONFIG_BLOCKS) + 1)])
def test_readme_config_runs(text, tmp_path):
    (tmp_path / "config.json").write_text(text, encoding="utf-8")
    _run(["-m", "sumkit.cli", "run", "config.json", "--out", "out"], tmp_path)
