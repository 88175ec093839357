"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here, not configurable.  Monte Carlo criteria use
fixed seeds, so the suite is deterministic end to end.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.special

from jrmt.cdkernel import KernelSpec, finite_profile, kernel, soft_edge
from jrmt.empirics import (
    EmpiricalSample,
    ExperimentSpec,
    ks_against_cdf,
    ks_distance,
    run_experiment,
)
from jrmt.ensembles import ProjectorPair, sample_largest, sample_spectrum
from jrmt.fredholm import gauss_legendre, largest_eval_cdf, tracy_widom_cdf
from jrmt.limits import banach_angle
from jrmt.matalg import one_blas_thread, principal_cosines
from jrmt.randgen import SeededStream, random_isometry
from tests.test_limits import AI_REFERENCE, AIP_REFERENCE, BESSEL_REFERENCE


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_two_route_equality():
    worst = 0.0
    details = []
    for big_n, q, qt in [(48, 12, 18), (40, 10, 10), (60, 12, 30)]:
        proj = np.concatenate(
            [sample_spectrum(SeededStream(101, t), big_n, q, qt, "projector") for t in range(2000)]
        )
        wish = np.concatenate(
            [sample_spectrum(SeededStream(202, t), big_n, q, qt, "wishart") for t in range(2000)]
        )
        d = ks_distance(EmpiricalSample.from_values(proj), EmpiricalSample.from_values(wish))
        details.append(f"({big_n},{q},{qt}): KS={d:.4f}")
        worst = max(worst, d)
    _verdict(1, "two-route distributional equality", worst < 0.02, "; ".join(details))


def test_criterion_02_one_point_convergence():
    report = run_experiment(
        ExperimentSpec(regime="onepoint", ns=(50, 100, 200), alpha=0.5, beta=0.25)
    )
    e = report.errors
    ok = e[0] > e[1] > e[2] and e[2] / e[0] < 0.5
    _verdict(
        2,
        "one-point density convergence",
        ok,
        f"sup errors {e[0]:.5f} > {e[1]:.5f} > {e[2]:.5f}, ratio {e[2] / e[0]:.3f} < 0.5",
    )


def test_criterion_03_bulk_universality():
    grid = tuple(np.linspace(-2.0, 2.0, 9))
    report = run_experiment(
        ExperimentSpec(regime="bulk", ns=(100, 200, 400), alpha=0.5, beta=0.25, u_grid=grid)
    )
    ok = report.errors[-1] < 0.05 and -1.4 <= report.slope <= -0.6
    _verdict(
        3,
        "bulk sine-kernel universality",
        ok,
        f"sup error at n=400: {report.errors[-1]:.5f} < 0.05, slope {report.slope:.2f} in [-1.4,-0.6]",
    )


def test_criterion_04_soft_edge():
    grid = tuple(np.linspace(-3.0, 1.5, 7))
    report = run_experiment(
        ExperimentSpec(regime="soft", ns=(100, 200, 400), alpha=0.5, beta=0.25, u_grid=grid)
    )
    e = report.errors
    ok = e[-1] < 0.1 and e[0] > e[1] > e[2]
    _verdict(
        4,
        "soft-edge Airy limit",
        ok,
        f"sup errors {e[0]:.4f} > {e[1]:.4f} > {e[2]:.4f}, n=400 error < 0.1",
    )


def test_criterion_05_hard_edge():
    grid = tuple(np.linspace(0.5, 16.0, 7))
    report = run_experiment(
        ExperimentSpec(regime="hard", ns=(100, 200, 400), alpha=0.5, bessel_order=2, u_grid=grid)
    )
    ok = report.errors[-1] < 0.03 and -1.4 <= report.slope <= -0.6
    _verdict(
        5,
        "hard-edge Bessel limit",
        ok,
        f"sup error at n=400: {report.errors[-1]:.6f} < 0.03, slope {report.slope:.2f} in [-1.4,-0.6]",
    )


def test_criterion_06_gap_consistency():
    spec = KernelSpec(12, 6.0, 3.0)
    prof = finite_profile(spec)
    p = ProjectorPair.from_kernel_spec(spec)
    tops = np.array(
        [sample_spectrum(SeededStream(606, t), p.n, p.q, p.q_tilde, "wishart")[-1] for t in range(5000)]
    )
    sym_tops = 2.0 * tops - 1.0  # unit-interval draws to the symmetric convention
    details = []
    ok = True
    for x in (prof.s - 0.05, prof.s, prof.s + 0.05):
        p = largest_eval_cdf(spec, x)
        frac = float((sym_tops <= x).mean())
        se = math.sqrt(max(p * (1.0 - p), 1e-12) / 5000)
        z = abs(p - frac) / se
        ok &= z <= 3.0
        details.append(f"x={x:.3f}: det={p:.4f} mc={frac:.4f} z={z:.2f}")
    _verdict(6, "gap probability vs Monte Carlo", ok, "; ".join(details))


def test_criterion_07_rescaled_largest_eigenvalue_law():
    n = 400
    spec = KernelSpec(n, float(n // 2), float(n // 2))  # ultraspherical a = b = n/2
    s_n, h_n = soft_edge(spec)
    p = ProjectorPair.from_kernel_spec(spec)
    tops = np.array([sample_largest(SeededStream(707, t), p.n, p.q, p.q_tilde) for t in range(2000)])
    rescaled = (2.0 * tops - 1.0 - s_n) * h_n
    sample = EmpiricalSample.from_values(rescaled)
    stat = ks_against_cdf(
        sample, lambda arr: np.array([tracy_widom_cdf(float(v)) for v in np.atleast_1d(arr)])
    )
    _verdict(
        7,
        "rescaled largest eigenvalue limit law",
        stat < 0.08,
        f"one-sample KS over 2000 draws: {stat:.4f} < 0.08",
    )


def test_criterion_08_spectral_emptiness_beyond_edge():
    alpha, beta = 0.5, 0.25
    literal_counts = []
    interior_counts = []
    for n in (16, 32, 64):
        a, b = int(alpha * n), int(beta * n)
        spec = KernelSpec(n, float(a), float(b))
        prof = finite_profile(spec)
        p = ProjectorPair.from_kernel_spec(spec)
        with one_blas_thread():
            draws = np.concatenate(
                [
                    2.0 * sample_spectrum(SeededStream(808, t), p.n, p.q, p.q_tilde, "wishart") - 1.0
                    for t in range(500)
                ]
            )
        draws.sort()
        # a window [w, 1] holds the draws from searchsorted(draws, w) to end
        end = np.searchsorted(draws, 1.0, "right")
        # the offset 0.1 pushes past +1 for this profile (1 - s < 0.1), so
        # the literal window is empty and its count is 0 by convention; the
        # halfway window is the non-vacuous version of the same statement
        lo = prof.s + 0.1
        literal_counts.append(0 if lo > 1.0 else int(end - np.searchsorted(draws, lo)))
        interior_counts.append(int(end - np.searchsorted(draws, prof.s + 0.5 * (1.0 - prof.s))))
    ok = (
        literal_counts[-1] == 0
        and literal_counts[0] >= literal_counts[1] >= literal_counts[2]
        and interior_counts[-1] == 0
        and interior_counts[0] >= interior_counts[1] >= interior_counts[2]
    )
    _verdict(
        8,
        "no spectrum beyond the edge",
        ok,
        f"counts in [s+0.1, 1]: {literal_counts} (window empty: s+0.1 > 1); "
        f"counts in [s+(1-s)/2, 1]: {interior_counts}",
    )


def test_criterion_09_subspace_angles():
    n, q, qp, trials = 200, 50, 60, 200
    s_pred = math.cos(banach_angle(q / n, qp / n)) ** 2
    vals = []
    for t in range(trials):
        b1 = random_isometry(SeededStream(909, 2 * t), n, q)
        b2 = random_isometry(SeededStream(909, 2 * t + 1), n, qp)
        vals.append(float(principal_cosines(b1, b2)[0] ** 2))
    mean = float(np.mean(vals))
    ok = s_pred - 0.05 <= mean <= s_pred + 0.02
    _verdict(
        9,
        "extreme principal angle",
        ok,
        f"mean max cos^2 = {mean:.4f} in [{s_pred - 0.05:.4f}, {s_pred + 0.02:.4f}] (s = {s_pred:.4f})",
    )


def test_criterion_10_kernel_structural_suite():
    checks = []
    # reproducing property: integral of K(x,.)K(.,z) reproduces K(x,z)
    spec = KernelSpec(8, 2.0, 1.0)
    t, w = gauss_legendre(256, -1.0, 1.0)
    x, z = 0.2, -0.3
    kx = np.array([kernel(spec, x, float(ti)) for ti in t])
    kz = np.array([kernel(spec, float(ti), z) for ti in t])
    rep_err = abs(float((kx * kz) @ w) - kernel(spec, x, z)) / abs(kernel(spec, x, z))
    checks.append(("reproducing", rep_err < 1e-6, f"{rep_err:.2e}"))
    # trace equals the rank
    spec20 = KernelSpec(20, 10.0, 5.0)
    t, w = gauss_legendre(200, -1.0, 1.0)
    trace = float(np.array([kernel(spec20, float(ti), float(ti)) for ti in t]) @ w)
    checks.append(("trace", abs(trace - 20.0) < 20 * 1e-6, f"{trace:.8f}"))
    # parameter parity
    sa, sb = KernelSpec(6, 2.0, 1.0), KernelSpec(6, 1.0, 2.0)
    par_err = max(
        abs(kernel(sa, xx, yy) - kernel(sb, -xx, -yy)) / abs(kernel(sa, xx, yy))
        for xx, yy in [(0.3, -0.2), (0.5, 0.1)]
    )
    checks.append(("parity", par_err < 1e-10, f"{par_err:.2e}"))
    # orthogonality of the underlying polynomials
    from jrmt.orthopoly import jacobi_pair

    a, b = 2.0, 1.0
    t, w = np.polynomial.legendre.leggauss(128)
    wt = w * (1 - t) ** a * (1 + t) ** b
    polys = np.array([np.ldexp(*jacobi_pair(k, a, b, t)[1:]) for k in range(16)])
    gram = polys @ (wt[:, None] * polys.T)
    orth_err = np.abs(gram - np.diag(np.diag(gram))).max() / np.diag(gram).max()
    checks.append(("orthogonality", orth_err < 1e-8, f"{orth_err:.2e}"))
    ok = all(c[1] for c in checks)
    _verdict(10, "kernel structural suite", ok, "; ".join(f"{n_}={d}" for n_, _, d in checks))


def test_criterion_11_special_function_oracle():
    worst_ai = max(abs(scipy.special.airy(x)[0] - float(r)) for x, r in AI_REFERENCE)
    worst_aip = max(abs(scipy.special.airy(x)[1] - float(r)) for x, r in AIP_REFERENCE)
    worst_j = max(abs(scipy.special.jv(b, z) - float(r)) for b, z, r in BESSEL_REFERENCE)
    # exact rational identity for the hard-edge kernel numerator coefficients
    from tests.test_limits import _series_coefficient

    exact_ok = True
    for k in range(4):
        for l in range(4):
            got = _series_coefficient(0, k, l)
            want = (
                Fraction(k - l, math.factorial(k) * math.factorial(l))
                / (math.factorial(k) * math.factorial(l))
                * (-1) ** (k + l - 1)
                * Fraction(1, 2) ** (2 * (k + l) - 1)
            )
            exact_ok &= got == want
    ok = worst_ai < 1e-10 and worst_aip < 1e-10 and worst_j < 1e-10 and exact_ok
    _verdict(
        11,
        "special functions vs arbitrary-precision oracle",
        ok,
        f"max |dAi|={worst_ai:.2e}, |dAi'|={worst_aip:.2e}, |dJ|={worst_j:.2e}, "
        f"coefficient identity exact: {exact_ok}",
    )
