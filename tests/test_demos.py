"""The demo scripts run and print exactly their recorded output.

`demo_goldens.json` maps each script under `demos/` to its stdout. The
outputs do not depend on the hash seed, so a byte-for-byte comparison
holds in any run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = json.loads((Path(__file__).parent / "demo_goldens.json").read_text())


def test_every_demo_has_a_golden():
    assert sorted(GOLDENS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_demo_output_is_unchanged(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDENS[name]
