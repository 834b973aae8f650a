"""Each script under demos/ runs, exits 0 with nothing on stderr, and prints what it printed
when its digest was captured (before the flow layer and compose moved onto integer Krylov
columns and power tables; expression_frontend.py's when its round-trip lines stopped
calling the renderer that only tests use)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "expression_frontend.py": "8de2f27e623837ae7d5016fccc3ea606704ae1db955431d4ec088a47341f8c6f",
    "fractional_iteration.py": "fae5a215c492a45ef2d00def4cac403fa2a307dcf9709f45e928b0ff89466fba",
    "summation_calculus.py": "bd6e8485827f50fba99d5c152761fdb7a2c8dcbc605aa976cae24b87506bef73",
    "triangles_five_ways.py": "33e1198245b0e220a44948e1718d9d0f1141c731c2a8af9597fbc720583dfe65",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_runs_and_prints_its_digest(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
