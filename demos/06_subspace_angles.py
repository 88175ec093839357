"""Minimal angles between independent random subspaces.

Two uniformly random subspaces of dimension ratios alpha and beta
(alpha + beta < 1) almost surely keep every pair of unit vectors at angle at
least theta, with cos^2(theta) the top edge of the limiting spectrum of the
compressed projector product.  Monte Carlo principal angles against the
prediction.  `jrmt angles` draws the same law from the tridiagonal model (the
largest cos^2 is the top eigenvalue of the compressed projector block); this
demo keeps the geometric construction, two Haar isometries and their principal
cosines, as the cross-check:
"""

import math

import numpy as np

from jrmt import banach_angle, principal_cosines
from jrmt.randgen import SeededStream, random_isometry

N = 200
for q, qp in [(30, 40), (50, 60), (70, 80)]:
    theta = banach_angle(q / N, qp / N)
    pred = math.cos(theta) ** 2
    vals = []
    for t in range(100):
        b1 = random_isometry(SeededStream(17, 2 * t), N, q)
        b2 = random_isometry(SeededStream(17, 2 * t + 1), N, qp)
        vals.append(principal_cosines(b1, b2)[0] ** 2)
    vals = np.array(vals)
    print(
        f"q={q}, q'={qp}: predicted cos^2 = {pred:.4f}, "
        f"observed mean/max = {vals.mean():.4f}/{vals.max():.4f}, "
        f"theta = {math.degrees(theta):.2f} deg"
    )
