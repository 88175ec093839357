"""Jacobi unitary ensembles at finite size and in the large-size limit.

The package covers the full chain from sampling to universality checks:

- ``randgen``: seeded complex Gaussians, Haar unitaries, random projectors
- ``matalg``: Hermitian eigendecomposition, principal angles and
  ``one_blas_thread``
- ``ensembles``: the projector-compression, Wishart-ratio and tridiagonal
  beta-Jacobi constructions
- ``orthopoly``: Jacobi polynomials by one array recurrence, ``jacobi_pair``,
  which returns mantissas and a power-of-two exponent per abscissa
- ``cdkernel``: the Christoffel-Darboux kernel and its bulk/edge rescalings
- ``limits``: limiting densities and the sine, Airy, and Bessel kernels
  (Airy and Bessel functions from ``scipy.special``)
- ``fredholm``: gap probabilities det(I - K) by Nystrom quadrature
- ``empirics``: Monte Carlo harness and convergence reports
- ``cli``: the ``jrmt`` command-line tool
- ``errors``: the exception types, which the CLI maps to its exit codes
"""

__version__ = "0.1.0"

from .cdkernel import (
    KernelSpec,
    hard_edge_scale,
    kernel,
    one_point_density,
    rescaled_bulk,
    rescaled_hard,
    rescaled_soft,
    soft_edge,
)
from .empirics import (
    ConvergenceReport,
    EmpiricalSample,
    ExperimentSpec,
    interval_count,
    ks_against_cdf,
    ks_distance,
    run_experiment,
)
from .ensembles import (
    ProjectorPair,
    ReductionPlan,
    projector_product,
    reduce_ranks,
    sample_largest,
    sample_spectrum,
)
from .errors import (
    DomainError,
    JrmtError,
    NumericError,
    ParameterError,
    RegimeError,
    ValidationError,
)
from .fredholm import GapQuery, gap_probability, largest_eval_cdf, tracy_widom_cdf
from .limits import (
    FreeDensity,
    LimitProfile,
    airy,
    airy_kernel,
    airy_prime,
    banach_angle,
    bessel_j,
    bessel_kernel,
    edge_profile,
    free_product_density,
    limit_density,
    sine_kernel,
    wishart_ratio_density,
)
from .matalg import eig_hermitian, one_blas_thread, principal_cosines
from .orthopoly import chi, chi_prime, jacobi_pair
from .randgen import (
    SeededStream,
    complex_ginibre,
    haar_unitary,
    random_isometry,
    random_projector,
)
