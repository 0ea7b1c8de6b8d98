"""Spectral toolkit for stationary states and phase transitions of mean-field
dynamics on the unit sphere S^{n-1}, with a particle simulator for
cross-validation."""

from .harmonics import (
    SpectralBasis,
    ZonalCoefficients,
    ZonalProfile,
    decompose,
    omega_n,
    reconstruct,
    spectral_basis,
    sphere_integral,
    triple_product_integral,
    y_l0,
)
from .kernels import (
    KernelSpec,
    closed_form_coefficients,
    coefficients,
    convexity_threshold,
    kernel_spec_from_json,
    stability_check,
)
from .meanfield import (
    ZonalDensity,
    convolve,
    entropy,
    free_energy,
    free_energy_gap,
    gamma_sharp,
    interaction_energy,
    linear_spectrum,
    make_density,
    uniform_density,
)
from .particles import (
    ParticleEnsemble,
    SimConfig,
    empirical_moments,
    kernel_force,
    order_axis,
    simulate,
    step,
    uniform_ensemble,
)
from .solver import (
    SolverConfig,
    bifurcation_points,
    competitor_energy_gap,
    find_transition,
    gibbs_fixed_point,
    residual,
    resonance_check,
    trace_branch,
)
from .specfun import (
    QuadratureRule,
    gauss_jacobi_rule,
    zonal_table,
)

__version__ = "0.1.0"
