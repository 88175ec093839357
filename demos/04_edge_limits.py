"""Edge universality: Airy at the square-root edge, Bessel at the hard edge.

At the upper spectral edge the kernel, rescaled by the turning-point data
(s_n, h_n) of the polynomial ODE, converges to the Airy kernel.  When the
lower weight exponent b is a fixed integer, the edge at -1 is hard and the
limit is the order-b Bessel kernel with scale 2 n^2 (1 + a/n).
"""

import numpy as np

from jrmt import KernelSpec, airy_kernel, bessel_kernel, local_scaling, rescaled

print("--- soft edge, alpha=0.5, beta=0.25 ---")
for n in (100, 200, 400):
    spec = KernelSpec(n, 0.5 * n, 0.25 * n)
    s, h, _ = local_scaling(spec, "soft")
    errs = [
        abs(rescaled(spec, "soft", u, v) - float(airy_kernel(u, v)))
        for u in np.linspace(-3, 1.5, 5)
        for v in np.linspace(-3, 1.5, 5)
    ]
    print(f"n={n:4d}: edge={s:.5f} scale={h:8.2f}  sup|K_resc - Airy| = {max(errs):.5f}")

print("\n--- hard edge, alpha=0.5, b=2 ---")
for n in (100, 200, 400):
    spec = KernelSpec(n, 0.5 * n, 2.0)
    c = local_scaling(spec, "hard")[1]
    errs = [
        abs(rescaled(spec, "hard", u, v) - float(bessel_kernel(2, u, v)))
        for u in np.linspace(0.5, 16, 5)
        for v in np.linspace(0.5, 16, 5)
    ]
    print(f"n={n:4d}: scale={c:10.0f}  sup|K_resc - F_2| = {max(errs):.6f}")
