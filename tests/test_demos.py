"""Every demo script runs to completion against the package in src/."""

import pytest

from tests.fresh import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo), timeout=600, cwd=ROOT)
    assert proc.stderr == ""
