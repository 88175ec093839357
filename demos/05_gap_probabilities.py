"""Gap probabilities: Fredholm determinants against Monte Carlo counts.

P(largest eigenvalue <= x) equals det(I - K) on [x, 1]; the Nystrom
discretization turns that into a 64x64 determinant.  The limiting law of the
rescaled largest eigenvalue is the same determinant built from the Airy
kernel on [t, infinity).
"""

import numpy as np

from jrmt import KernelSpec, SeededStream, largest_eval_cdf, sample_spectra, tracy_widom_cdf
from jrmt.cdkernel import finite_profile

N, A, B = 12, 6, 3
spec = KernelSpec(N, float(A), float(B))
prof = finite_profile(spec)

streams = [SeededStream(5, t) for t in range(3000)]
draws = sample_spectra(streams, A + 2 * N + B, N, N + B, "wishart")[:, -1]
sym = 2.0 * draws - 1.0

print(f"size-{N} ensemble, band edge near {prof.s:.4f}")
print(" x        det(I-K)   MC fraction")
for x in np.linspace(prof.s - 0.1, prof.s + 0.05, 7):
    det = largest_eval_cdf(spec, float(x))
    mc = float((sym <= x).mean())
    print(f"{x:+.4f}   {det:.5f}    {mc:.5f}")

print("\nlimiting edge distribution (Airy determinant):")
for t in (-4.0, -2.0, -1.0, 0.0, 2.0):
    print(f"  F(t={t:+.1f}) = {tracy_widom_cdf(t):.6f}")
