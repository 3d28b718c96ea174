"""gfkit: exact and numeric kernels from generating-function methods --
Wigner recoupling coefficients, U(n)/SU(3) representation machinery,
Hurwitz quadratic transformations, hydrogen momentum-space wavefunctions,
oscillator propagators and small many-body solvers.
"""
from .exact import (FactorialCache, HalfInt, SqrtRational, canonicalize,
                    parse_sqrt_rational, triangle_delta)
from .wigner import (NineJLabel, SixJLabel, ThreeJLabel, clebsch_gordan,
                     gaunt, ninej, regge_orbit, sixj_gf, sixj_oracle, threej,
                     wigner_3j, wigner_6j_gf, wigner_6j_oracle, wigner_9j)

__all__ = [
    "FactorialCache", "HalfInt", "SqrtRational", "canonicalize",
    "parse_sqrt_rational", "triangle_delta", "ThreeJLabel", "SixJLabel",
    "NineJLabel", "threej", "wigner_3j", "clebsch_gordan", "sixj_oracle",
    "sixj_gf", "wigner_6j_oracle", "wigner_6j_gf", "ninej", "wigner_9j",
    "regge_orbit", "gaunt",
]

__version__ = "0.1.0"
