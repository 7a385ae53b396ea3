"""Numerical toolkit for singular stochastic Volterra integral equations.

Subpackages
-----------
kernels   singular two-parameter kernels, quadrature and classification
lattice   exact discrete filtered probability space ((m+1)-branch simplex tree)
forward   forward Volterra equation solvers (lattice, Picard, Monte Carlo)
backward  backward Volterra equations and adapted M-solutions
control   maximum-principle toolkit for controlled Volterra systems
delay     maximum principle for controlled delay evolution systems
registry  named example problems and the paper's example builders
cli       experiment runner
"""

__version__ = "0.1.0"

from . import (backward, control, delay, forward, kernels,  # noqa: F401
               lattice, registry, special)
