"""Finite-size eigenvalue density against its large-size limit.

The expected normalized eigenvalue density of the size-n ensemble is the
kernel diagonal over n; as n grows with a/n, b/n fixed it converges to a
square-root-edge density supported on [r, s].  Sampled spectra, the kernel
diagonal, and the limit curve are compared on one grid.
"""

import numpy as np

from jrmt import KernelSpec, ProjectorPair, SeededStream, edge_profile, limit_density
from jrmt import one_point_density, sample_spectra

ALPHA, BETA = 0.5, 0.25
N = 48

spec = KernelSpec(N, ALPHA * N, BETA * N)
pair = ProjectorPair.from_kernel_spec(spec)  # the ranks whose block has this law
prof = edge_profile(ALPHA, BETA)
print(f"support of the limit density: [{prof.r:.4f}, {prof.s:.4f}]")

spectra = sample_spectra([SeededStream(7, t) for t in range(400)], pair.n, pair.q, pair.q_tilde, "wishart")
draws = (2.0 * spectra - 1.0).ravel()

grid = np.linspace(prof.r + 0.02, prof.s - 0.02, 13)
width = 0.08
print("\n x       empirical   kernel diag   limit")
for x in grid:
    emp = ((draws > x - width / 2) & (draws < x + width / 2)).mean() * N / width / N
    fin = one_point_density(spec, float(x))
    lim = limit_density(prof, float(x))
    print(f"{x:+.3f}   {emp:9.4f}   {fin:11.4f}   {lim:7.4f}")
