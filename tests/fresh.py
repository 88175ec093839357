"""Fresh Python processes for the tests of jrmt's start-up and BLAS-thread contracts.

What a process loads, and the thread count each OpenBLAS reads from
OPENBLAS_NUM_THREADS when it is loaded, are only seen in a new interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args, threads=None, timeout=300, cwd=None):
    """Run ``python *args`` with ``src/`` as PYTHONPATH and assert it exits 0.

    ``threads`` sets OPENBLAS_NUM_THREADS; left as None, the variable is
    inherited.  Returns the CompletedProcess, with stdout and stderr as text.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def same_at_one_and_two_threads(*args):
    """Stdout of ``python *args`` at OPENBLAS_NUM_THREADS 1, asserted equal at 2."""
    one, two = (run_python(*args, threads=threads, timeout=600).stdout for threads in (1, 2))
    assert one == two, f"at one thread:\n{one}\nat two:\n{two}"
    return one
