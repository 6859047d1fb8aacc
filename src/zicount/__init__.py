"""zicount: fit, simulate, and compare models for zero-inflated count data.

Three model families are covered: zero-inflated negative binomial,
hurdle negative binomial, and the truncated latent Gaussian copula.
Model comparison runs on AIC (univariate regressions) and on exact
sample Wasserstein distances under cross-validation (multivariate).

The package exports the public names of its six modules below, each
listed once, in that module's ``__all__``.
"""

__version__ = "0.1.0"

from . import bench, copula, counts, evaluate, fitting, synth
from .bench import *
from .copula import *
from .counts import *
from .evaluate import *
from .fitting import *
from .synth import *

__all__ = ["__version__"] + [name for module in (counts, fitting, copula, synth, evaluate, bench) for name in module.__all__]
