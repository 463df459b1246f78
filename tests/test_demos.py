"""The demos run end to end as scripts: exit 0, nothing on stderr, and each
prints its key line."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name, line",
    [
        (
            "01_sic_from_symplectic_cover.py",
            "theta side: 9 lines in C^3, alpha^2 = 1/4, relative bound = 1/4, absolute bound = 9",
        ),
        ("02_feasible_parameter_tables.py", "1225\t5\t205\t198\t204\t-6\t140\t4760"),
        (
            "03_hadamard_bridge_and_quotients.py",
            "generalized Hadamard over AbelianGroup(orders=(3,)) valid: True",
        ),
        ("04_two_graphs_and_doubling.py", "doubled cover: (n, r, c) = (6, 2, 2)"),
    ],
    ids=["01", "02", "03", "04"],
)
def test_demo_runs(name, line):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert line in proc.stdout.splitlines()
