"""Each narrative script in demos/ runs to completion and prints the same bytes.

The demos print potenziante expansions, transition matrices, c_k with
`Fraction` coefficients and certificates, so their pinned stdout covers
printing that the CLI digests in test_pinned_outputs.py do not.  If a
digest here moves on purpose, recompute it and say why in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

DIGESTS = {
    "01_invariant_bases.py": "573ab1afce49ac556bee4b7cf31d75b7e8895e1725d82ddfb01c1545306dcba9",
    "02_perpetuants_and_certificates.py": "553d25ad757faec30d1a37145f840c6d3deea7daae5382f50b46cf8a9b2603a2",
    "03_symmetric_function_side.py": "f12c3f3ad117e9552899bf3dc5cfaad2f90ae5500a983c6affdf16ae08318cde",
    "04_classical_invariants.py": "5cef92ca0530b46db9ffa58ff0aaa809213a2f08a5a1413a5f5aca9c34bdf6a9",
}


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == DIGESTS[demo.name], f"{demo.name} output changed"
