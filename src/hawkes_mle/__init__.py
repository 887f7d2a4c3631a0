"""Multivariate Hawkes processes: simulation and regularized MLE.

Modules
-------
model       kernels, parameters, box domains, stationarity diagnostics
simulate    branching-cluster and thinning samplers
likelihood  closed-form log-likelihood and analytic gradient
optim       PALM / iPALM / Anderson-accelerated iPALM
experiments synthetic recipes, benchmarks, consistency studies
io, cli     file formats and the ``hawkes-mle`` command line

The package exports every name in the ``__all__`` of the first five.
"""

from .model import *
from .simulate import *
from .likelihood import *
from .optim import *
from .experiments import *

__all__ = (
    model.__all__ + simulate.__all__ + likelihood.__all__ + optim.__all__ + experiments.__all__
)

__version__ = "0.1.0"
