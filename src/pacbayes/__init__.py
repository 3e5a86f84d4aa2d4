"""PAC-Bayes certificates, bound-minimizing posteriors, and a verification lab.

The package splits into four layers plus a command-line front end,
``pacbayes.cli``, which the package does not import itself.  ``oracle_lab``
loads on first access (``pacbayes.oracle_lab`` or an import of it), so a
certificate never pays for the laboratory:

``divergences``
    Binary kl and its upper inverse, discrete KL / chi-square, Gaussian and
    uniform-ball closed forms, and the Donsker-Varadhan gap.
``bounds``
    The empirical bound catalog: each theorem's right-hand side as a
    :class:`~pacbayes.bounds.Certificate` with its term decomposition.
``posteriors``
    Gibbs posteriors, lambda-grid and model-selection certificates,
    aggregation, single-draw bounds, the diagonal-Gaussian variational
    optimizer, and the EWA online forecaster.
``oracle_lab``
    Synthetic tasks with known true risks, Bernstein constants,
    oracle-bound evaluators, pi-dimension, and seeded violation / rate /
    exponential-moment experiments.
"""

import importlib

from . import bounds, divergences, posteriors
from .bounds import BoundInput, Certificate
from .divergences import DiagonalGaussian, DiscreteDistribution
from .posteriors import RiskTable, VariationalConfig

__version__ = "0.1.0"

__all__ = [
    "bounds",
    "divergences",
    "oracle_lab",
    "posteriors",
    "BoundInput",
    "Certificate",
    "DiagonalGaussian",
    "DiscreteDistribution",
    "RiskTable",
    "VariationalConfig",
    "__version__",
]


def __getattr__(name):
    if name == "oracle_lab":
        return importlib.import_module(f"{__name__}.oracle_lab")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
