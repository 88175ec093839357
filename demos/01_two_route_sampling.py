"""Three constructions, one law.

Compressing a fixed rank-q_tilde projector onto a uniformly rotated rank-q
subspace of C^n gives the same eigenvalue distribution as the Wishart ratio
(X+X')^{-1/2} X (X+X')^{-1/2} and as the tridiagonal beta-Jacobi model at
beta = 2, which needs only 2q - 1 Beta variables per draw.  This script pools
spectra from all three routes and prints the KS distances plus a coarse
histogram comparison.
"""

import numpy as np

from jrmt import EmpiricalSample, SeededStream, ks_distance, sample_spectra

N, Q, QT = 48, 12, 18
TRIALS = 1000

pooled = {
    route: sample_spectra([SeededStream(seed, t) for t in range(TRIALS)], N, Q, QT, route).ravel()
    for seed, route in ((1, "projector"), (2, "wishart"), (3, "tridiagonal"))
}
proj, wish, tri = pooled["projector"], pooled["wishart"], pooled["tridiagonal"]


def ks(a, b):
    return ks_distance(EmpiricalSample.from_values(a), EmpiricalSample.from_values(b))


print(f"ambient n={N}, ranks q={Q}, q_tilde={QT}, {TRIALS} draws per route")
print(f"KS distance between pooled spectra, projector vs wishart:     {ks(proj, wish):.4f}")
print(f"KS distance between pooled spectra, projector vs tridiagonal: {ks(proj, tri):.4f}\n")

edges = np.linspace(0, 1, 11)
hp, hw, ht = (np.histogram(v, edges, density=True)[0] for v in (proj, wish, tri))
print("bin        projector   wishart  tridiagonal")
for i in range(10):
    bar = "#" * int(12 * hp[i])
    print(f"[{edges[i]:.1f},{edges[i+1]:.1f})   {hp[i]:8.3f}  {hw[i]:8.3f}  {ht[i]:8.3f}   {bar}")
