"""toriceig: first-eigenvalue numerics for toric Kahler metrics.

The library turns moment-polytope data into spectral geometry: exact lattice
combinatorics and eigenvalue bounds (`polytope`, `projective`), symplectic
potentials and their metrics (`potential`, `geometry`), and Rayleigh-Ritz
computation of the first invariant eigenvalue (`quadrature`, `spectral`).
"""

from .polytope import (
    LabelledPolytope,
    LatticeData,
    Vertex,
    load_polytope,
    polytope_from_dict,
    polytope_to_dict,
)
from .polynomials import MultiPoly
from .potential import (
    HessianSample,
    SymplecticPotential,
    dilation,
    dilation_limit_B,
    guillemin,
    guillemin_plus_poly,
    potential_from_spec,
    quadratic_perturbed,
    validate,
)
from .geometry import (
    CurvatureSample,
    KEReport,
    ke_check,
    scalar_curvature,
)
from .quadrature import QuadratureRule, build_quadrature, triangulate
from .spectral import (
    RitzResult,
    SweepResult,
    lambda1_invariant,
    sweep_dilation,
    sweep_uc,
)
from .projective import (
    BalanceWeights,
    BoundReport,
    EmbeddingData,
    SaturationReport,
    balance,
    bound_report,
    build_embedding,
    psi_diag,
    saturation_check,
)
from .data import example_path, example_polytope

__version__ = "0.1.0"
