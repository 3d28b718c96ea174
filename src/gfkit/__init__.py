"""gfkit: exact and numeric kernels from generating-function methods --
Wigner recoupling coefficients, U(n)/SU(3) representation machinery,
Hurwitz quadratic transformations, hydrogen momentum-space wavefunctions,
oscillator propagators and small many-body solvers.
"""
from .exact import (FactorialCache, HalfInt, SqrtRational, parse_sqrt_rational,
                    triangle_delta)
from .wigner import (ThreeJLabel, clebsch_gordan, gaunt, ninej, regge_orbit,
                     sixj_gf, sixj_oracle, threej)

__all__ = [
    "FactorialCache", "HalfInt", "SqrtRational", "parse_sqrt_rational",
    "triangle_delta", "ThreeJLabel", "threej", "clebsch_gordan", "sixj_oracle",
    "sixj_gf", "ninej", "regge_orbit", "gaunt",
]

__version__ = "0.1.0"
