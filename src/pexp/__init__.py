"""Numerical laboratory for p-exponential prior measures.

Modules
-------
univariate     the one-dimensional p-exponential distribution
sequences      coefficient vectors, scaling sequences, Besov weights and the
               weighted-l_p norm
measure        prior sampling and empirical checks of measure properties
concentration  the concentration function: exact approximation term,
               Monte Carlo and deep-regime small balls (demo 04),
               complexity-bound functions f and g (demo 05)
rates          closed-form contraction-rate and minimax calculators
models         white noise and density estimation posteriors
experiments    contraction sweeps, inequality batteries, result emission
"""

from . import concentration, experiments, measure, models, rates, sequences, univariate

__all__ = [
    "concentration",
    "experiments",
    "measure",
    "models",
    "rates",
    "sequences",
    "univariate",
]

__version__ = "0.1.0"
