"""Jacobi unitary ensembles at finite size and in the large-size limit.

The package covers the full chain from sampling to universality checks:

- ``randgen``: seeded streams, complex Gaussians and Haar isometries
- ``matalg``: Hermitian eigendecomposition, principal angles and
  ``one_blas_thread``, which holds every dense draw's BLAS at one thread
- ``ensembles``: the projector-compression, Wishart-ratio and tridiagonal
  beta-Jacobi constructions
- ``orthopoly``: Jacobi polynomials by one streamed array recurrence,
  ``jacobi_rows`` (``jacobi_pair`` is its last two rows), and their norms
- ``cdkernel``: the Christoffel-Darboux kernel and its bulk/edge rescalings,
  each defined once by ``local_scaling``
- ``limits``: limiting densities and the sine, Airy, and Bessel kernels
  (Airy and Bessel functions from ``scipy.special``)
- ``fredholm``: gap probabilities det(I - K) by Nystrom quadrature
- ``empirics``: empirical samples, KS statistics and deterministic
  convergence reports
- ``cli``: the ``jrmt`` command-line tool
- ``errors``: the exception types, which the CLI maps to its exit codes

Importing the package loads numpy but no scipy module.  jrmt calls five
scipy functions, and ``_scipy`` loads the two compiled modules that define
them from their files, without the ``scipy.special`` and ``scipy.linalg``
packages (half of a command's cold start): the special functions at the
first Airy or Bessel call, LAPACK at the first draw or ``one_blas_thread``.
The finite-n kernel and the determinants' BLAS hold load neither.
"""

__version__ = "0.1.0"

from .cdkernel import (
    KernelSpec,
    hard_edge_scale,
    kernel,
    local_scaling,
    one_point_density,
    rescaled,
    soft_edge,
)
from .empirics import (
    ConvergenceReport,
    EmpiricalSample,
    ExperimentSpec,
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
    sample_spectra,
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
    airy_kernel,
    banach_angle,
    bessel_kernel,
    edge_profile,
    free_product_density,
    limit_density,
    sine_kernel,
)
from .matalg import eig_hermitian, one_blas_thread, principal_cosines
from .orthopoly import jacobi_pair
from .randgen import SeededStream, random_isometry
