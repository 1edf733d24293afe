"""Multiscale smoothness quantities on periodic grids.

Modules: field (grids, windows, mollifiers), spectral (fractional
calculus), coeffs (local approximation coefficients), carleson
(square-function aggregation), bmo (oscillation and difference
functionals), geometry (plane numbers for point clouds), corpus
(synthetic fields and persistence), experiments (comparability ratios
and bands), cli (batch front end).
"""

from .field import (
    BallWindow,
    Grid,
    Mollifier,
    SampledField,
    ball_count,
    ball_mean,
    make_grid,
    mollify,
    sample,
)
from .spectral import (
    calibrate_pv_constant,
    fractional_derivative,
    fractional_laplacian_pv,
    riesz_potential,
    spectral_gradient,
)
from .coeffs import (
    KINDS,
    CoefficientMatrix,
    ScaleLadder,
    coefficient_matrix,
    make_ladder,
    nu0,
    nu1,
    nu_bar,
    nu_tilde,
)
from .carleson import (
    CarlesonReport,
    carleson_constant,
    comparability_experiment,
    square_function_integral,
)
from .bmo import (
    CubeSpec,
    OscillationReport,
    StrichartzReport,
    bmo_norm,
    bmo_sup,
    holder_seminorm,
    make_ball_family,
    make_cube_family,
    strichartz_first,
    strichartz_second,
)
from .geometry import PlaneFit, PointCloud, beta2k, graph_beta_vs_nu1
from .corpus import (
    CorpusSpec,
    expected_regularity,
    generate,
    load_field,
    roughness_exponent,
    save_field,
)

__version__ = "0.1.0"
