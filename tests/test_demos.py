"""Every demo prints the bytes pinned for it, warning-free.

The demos are deterministic, so a refactor that keeps every result keeps
their output byte for byte.  A digest moves only with a reason recorded in
CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PINNED = json.loads((Path(__file__).parent / "data" / "demos_stdout_sha256.json").read_text())


def test_every_demo_has_a_pinned_digest():
    assert sorted(PINNED) == sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_prints_its_pinned_bytes(name):
    # like the CI demo step, a leaked numpy overflow or invalid-value warning fails it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / name)],
                         env=env, capture_output=True, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == PINNED[name]
