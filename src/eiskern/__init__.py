"""eiskern: Eisenstein and Hilbert-Eisenstein series, the complete Omega
function and conjugate Bernoulli numbers, each computable by at least two
independent representations, plus a verification CLI that machine-checks
the identities, bounds and conjectures relating them."""

from .controls import Evaluation
from .errors import (ConfigError, DomainError, EiskernError, NonConvergence,
                     PoleError, QuadratureFailure, StepError, StripError,
                     UnsupportedOrder)
from .numkern import (EULER_GAMMA, PI, bernoulli_number, bernoulli_poly,
                      digamma, digamma_realpart_integral, dirichlet_eta,
                      dirichlet_lambda, gamma, pochhammer, polygamma,
                      riemann_zeta, zeta_odd_series)
from .eisenstein import (eisenstein_closed, eisenstein_direct,
                         eisenstein_integral, eisenstein_polygamma,
                         product_identity_residual)
from .hilbert_eisenstein import (he_closed, he_direct, he_real, he_taylor,
                                 he_via_eisenstein, mathieu, mathieu_E)
from .omega import (omega_asymptotic_envelope, omega_bounds, omega_digamma,
                    omega_eval, omega_moment, omega_ode_residual,
                    omega_partial_fraction, omega_pv_hilbert,
                    omega_quadrature, omega_taylor)
from .conj_bernoulli import (ConjectureCheck, conj_bernoulli_genfun,
                             conj_bernoulli_half, conj_bernoulli_periodic,
                             conj_genfun_series, conjecture_double_sum,
                             fractional_bernoulli, periodic_polylog,
                             ramanujan_bstar, zeta_even_euler,
                             zeta_odd_via_conj)

__version__ = "0.1.0"

__all__ = [
    "Evaluation",
    "EiskernError", "PoleError", "DomainError", "NonConvergence",
    "QuadratureFailure", "UnsupportedOrder", "StripError", "StepError",
    "ConfigError",
    "EULER_GAMMA", "PI",
    "gamma", "digamma", "polygamma", "riemann_zeta", "dirichlet_eta",
    "dirichlet_lambda", "bernoulli_number", "bernoulli_poly", "pochhammer",
    "zeta_odd_series", "digamma_realpart_integral",
    "eisenstein_direct", "eisenstein_closed", "eisenstein_polygamma",
    "eisenstein_integral", "product_identity_residual",
    "he_direct", "he_closed", "he_taylor", "he_real", "he_via_eisenstein",
    "mathieu", "mathieu_E",
    "omega_quadrature", "omega_digamma", "omega_partial_fraction",
    "omega_taylor", "omega_moment", "omega_bounds", "omega_eval",
    "omega_asymptotic_envelope", "omega_ode_residual", "omega_pv_hilbert",
    "conj_bernoulli_half", "conj_bernoulli_periodic", "conj_bernoulli_genfun",
    "conj_genfun_series", "zeta_odd_via_conj", "zeta_even_euler",
    "fractional_bernoulli", "ramanujan_bstar", "conjecture_double_sum",
    "ConjectureCheck", "periodic_polylog",
]
