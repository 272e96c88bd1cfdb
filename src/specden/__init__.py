"""Spectral density estimation by the Jackson-damped kernel polynomial method.

The pipeline: estimate normalized Chebyshev moments of a symmetric matrix
(exactly, stochastically, or through an approximate matrix-vector oracle),
damp them into a guaranteed probability density on [-1, 1], then optionally
discretize into approximate eigenvalues and score in Wasserstein-1 distance.
"""

from .chebyshev import (
    NORM_0,
    NORM_K,
    ChebyshevSeries,
    DomainError,
    cheb_weighted_integral,
    series_eval,
)
from .jackson import JacksonCoefficients, damp_moments, degree_for_accuracy, jackson_coefficients
from .oracles import (
    MatvecOracle,
    SymmetricMatrix,
    estimate_spectral_norm,
    exact_oracle,
    load_dense_text,
    load_matrix_market,
    noisy_oracle,
    scale_to_unit_norm,
)
from .moments import (
    MomentVector,
    approx_hutchinson_moments,
    exact_moments,
    hutchinson_moments,
    moments_from_spectrum,
)
from .density import (
    DensityEstimate,
    check_density,
    export_plot_data,
    full_kpm,
    idealized_kpm,
    perturbed_moments,
)
from .spectrum import (
    DiscreteSpectrum,
    dense_eigenvalues,
    discretize_greedy,
    discretize_optimal,
    w1_density_vs_spectrum,
    w1_discrete,
)
from .graphs import (
    GraphAccess,
    SampledMatvecReport,
    exact_graph_oracle,
    generate_graph,
    graph_from_edges,
    laplacian_reflect,
    load_graph,
    sampled_graph_oracle,
    sampled_matvec,
    save_graph,
)

__version__ = "0.1.0"
