"""Bulk universality: the rescaled kernel approaches sin(pi(u-v))/(pi(u-v)).

At a point x inside the spectrum, measuring the kernel in units of the local
mean spacing 1/(n f(x)) washes out every ensemble parameter: only the sine
kernel remains.  The error is expected to shrink like 1/n.
"""

import numpy as np

from jrmt import ExperimentSpec, KernelSpec, local_scaling, rescaled, run_experiment, sine_kernel

ALPHA, BETA = 0.5, 0.25

spec = KernelSpec(200, ALPHA * 200, BETA * 200)
x0 = local_scaling(spec, "bulk")[0]  # the band midpoint
print(f"rescaled kernel at n=200 around x = {x0:.4f}:")
print(" u      v      rescaled   sine-kernel")
for u, v in [(0.0, 0.0), (0.5, 0.0), (1.0, 0.25), (2.0, -1.0)]:
    print(f"{u:+.2f}  {v:+.2f}   {rescaled(spec, 'bulk', u, v):+.5f}   {float(sine_kernel(u, v)):+.5f}")

report = run_experiment(
    ExperimentSpec(
        regime="bulk",
        ns=(100, 200, 400),
        alpha=ALPHA,
        beta=BETA,
        u_grid=tuple(np.linspace(-2, 2, 9)),
    )
)
print("\nsup-norm error on the 9x9 grid:")
for n, e in zip(report.ns, report.errors):
    print(f"  n={n:4d}: {e:.6f}")
print(f"fitted log-log slope: {report.slope:.2f} (expected about -1)")
