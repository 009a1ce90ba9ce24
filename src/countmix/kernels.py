"""Numerically stable component pmfs and mixture-density evaluation.

All likelihood arithmetic happens in log space: log-pmfs go through
``gammaln``/``xlogy`` so large counts never overflow a factorial, and mixture
densities are combined with log-sum-exp.  Underflow saturates to ``-inf``
rather than producing NaN.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, logsumexp, xlog1py, xlogy

from .base import DomainError, MixingDistribution, MixtureKernel

__all__ = [
    "log_pmf",
    "mixture_log_density",
]


def log_pmf(kernel: MixtureKernel, x, r):
    """Log pmf of the component at count ``x`` and rate ``r`` in [0, 1].

    Poisson: log of (n r)^x e^{-n r} / x!.  Binomial: log of C(n, x) r^x
    (1 - r)^{n - x}.  Boundary rates follow the natural limits: at r = 0 only
    x = 0 has mass; a binomial at r = 1 puts all mass on x = n.  Broadcasts
    over array arguments.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    if kernel.family == "poisson":
        lam = kernel.n * r
        out = xlogy(x, lam) - lam - gammaln(x + 1.0)
    else:
        if np.any(x > kernel.n):
            raise DomainError("binomial count exceeds the number of trials")
        n = float(kernel.n)
        out = (
            gammaln(n + 1.0)
            - gammaln(x + 1.0)
            - gammaln(n - x + 1.0)
            + xlogy(x, r)
            + xlog1py(n - x, -r)
        )
    if out.ndim == 0:
        return float(out)
    return out


def mixture_log_density(kernel: MixtureKernel, mixing: MixingDistribution, x):
    """Log density of the mixture at count ``x``: log sum_j w_j q(x, r_j).

    Combined with log-sum-exp; exact ``-inf`` when every component vanishes.
    """
    x = np.asarray(x, dtype=float)
    logq = log_pmf(kernel, x[..., None], mixing.atoms)
    with np.errstate(divide="ignore"):
        out = logsumexp(logq, axis=-1, b=mixing.weights)
    if np.ndim(out) == 0:
        return float(out)
    return np.asarray(out)

