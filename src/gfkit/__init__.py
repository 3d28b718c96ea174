"""gfkit: exact and numeric kernels from generating-function methods --
Wigner recoupling coefficients, U(n)/SU(3) representation machinery,
Hurwitz quadratic transformations, hydrogen momentum-space wavefunctions,
oscillator propagators and small many-body solvers.

Each kernel is its own module and is imported by its own path
(``from gfkit.wigner import threej``); the package re-exports nothing, so
importing one kernel loads no other.
"""

__version__ = "0.1.0"
