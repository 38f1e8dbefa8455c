"""Each demo prints exactly its golden output.

The goldens under ``golden/demos`` hold what each script in ``demos/``
prints; a demo must exit 0 with nothing on stderr and the same bytes on
stdout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    goldens = sorted(p.stem for p in (ROOT / "tests" / "golden" / "demos").glob("*.txt"))
    assert goldens == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_output_matches_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env,
                            timeout=120, check=False)
    assert result.returncode == 0
    assert result.stderr == b""
    assert result.stdout == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_bytes()
