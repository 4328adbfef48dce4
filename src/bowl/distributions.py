"""Exact samplers for the latent-variable and coefficient updates.

Everything here is a deterministic function of (parameters, rng state):
identical seeds reproduce identical draws bit-for-bit. Samplers are
stateless and safe to use concurrently as long as each thread owns its
own Generator.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from numpy._core.multiarray import count_nonzero
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg

# Below this, the inverse-Gaussian mean 1/sqrt(chi) is so large that the
# half-order GIG is indistinguishable from its chi=0 Gamma limit.
CHI_DEGENERATE = 1e-12


def _all_true(mask: np.ndarray) -> bool:
    """mask.all() as one call of the C function behind np.count_nonzero, without either's Python wrapper."""
    return count_nonzero(mask) == mask.size


# np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"), built once: entering it
# per call costs about as much as a small solve.
_RAISE_INVALID = _make_extobj(invalid="raise", over="ignore", divide="ignore", under="ignore")


def _lapack(gufunc, message: str, *operands) -> np.ndarray:
    """An np.linalg LAPACK gufunc minus np.linalg's wrapper; its failure flag raises numpy's LinAlgError."""
    token = _extobj_contextvar.set(_RAISE_INVALID)
    try:
        return gufunc(*operands)
    except FloatingPointError:
        raise LinAlgError(message) from None
    finally:
        _extobj_contextvar.reset(token)


# np.linalg.cholesky(a), np.linalg.solve(a, b) and np.linalg.inv(a) for a float p x p `a` and length-p `b`,
# or stacks of them over leading axes.
cholesky = partial(_lapack, _umath_linalg.cholesky_lo, "Matrix is not positive definite")
solve = partial(_lapack, _umath_linalg.solve1, "Singular matrix")
inv = partial(_lapack, _umath_linalg.inv, "Singular matrix")


class MvnParams:
    """N(precision^{-1} linear, precision^{-1}) for each member of a batch: the means by LU `solve`, then the Cholesky factors.

    precision is (R, p, p) and linear (R, p), one row per member; numpy's
    stacked gufuncs solve and factor all R in one call, each with the bits
    of its own 2-D call. Every precision must be exactly symmetric. A
    LinAlgError here means one is singular or not positive definite
    (degenerate data or a caller bug, not a sampling failure).
    """

    def __init__(self, precision: np.ndarray, linear: np.ndarray):
        precision = np.asarray(precision, dtype=float)
        linear = np.asarray(linear, dtype=float)
        if linear.ndim != 2 or precision.shape != linear.shape + linear.shape[1:]:
            raise ValueError("linear terms must be R x p and precisions R x p x p")
        mean = solve(precision, linear)
        if not (_all_true(np.isfinite(mean)) and _all_true(np.isfinite(precision))):
            raise ValueError("mean and precision must be finite")
        if not _all_true(precision == precision.mT):
            raise ValueError("precision matrix must be symmetric")
        self.mean = mean
        self.chol_lower = cholesky(precision)


def _invgauss(mu, normal, uniform):
    """IG(mu, 1) draws by Michael-Schucany-Haas transformation-with-rejection, from standard normals and uniforms.

    A member draws its normals, then its uniforms, each as many as its mu.
    The small root of the transformed quadratic is evaluated as
    mu / (1 + t + sqrt(t^2 + 2t)) with t = mu*y/2, which is algebraically
    identical to the textbook form but free of the catastrophic cancellation
    it suffers for large y.
    """
    t = mu * normal**2 / 2.0
    x_small = mu / (1.0 + t + np.sqrt(t * t + 2.0 * t))
    return np.where(uniform <= mu / (mu + x_small), x_small, mu * mu / x_small)


def _invgauss_draw(mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """`_invgauss` at mu from rng; rng.random has the bits and stream position of rng.uniform."""
    return _invgauss(mu, rng.standard_normal(mu.shape), rng.random(mu.shape))


def _gig_half_draw_vec(chi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vector of independent GIG(1/2, 1, chi_i) draws, the latent scales of the hinge's normal mixture.

    Uses the reciprocal identity: X ~ GIG(1/2, 1, chi) iff
    1/X ~ IG(sqrt(1/chi), 1). Entries with chi below the degeneracy
    cutoff fall back to the exact chi=0 limit Gamma(1/2, rate 1/2).
    """
    chi = np.asarray(chi, dtype=float)
    degenerate = chi < CHI_DEGENERATE
    if not count_nonzero(degenerate):
        return 1.0 / _invgauss_draw(np.sqrt(1.0 / chi), rng)
    if count_nonzero(chi < 0):  # a negative chi is below the cutoff, so it is caught before any draw
        raise ValueError("chi must be nonnegative")
    out = np.empty_like(chi)
    out[degenerate] = rng.gamma(0.5, 2.0, size=int(degenerate.sum()))
    proper = ~degenerate  # may be empty: a size-0 draw takes nothing from the stream
    out[proper] = 1.0 / _invgauss_draw(np.sqrt(1.0 / chi[proper]), rng)
    return out


def sample_mvn(params: MvnParams, rngs) -> np.ndarray:
    """Draw member r from N(mean_r, precision_r^{-1}), its p normals from rngs[r], via the precision Cholesky factors.

    x = mean + L^{-T} z has covariance (L L^T)^{-1} = precision^{-1} exactly.
    L^{-T} z is numpy's LU solve (`solve`) of the upper-triangular L^T: with a
    nonzero diagonal, partial pivoting keeps every row in place and each
    elimination step subtracts exact zeros, so it gives the bits of
    `scipy.linalg.solve_triangular(L, z, trans="T", lower=True)`. A zero on
    L's diagonal raises LinAlgError.
    """
    chol = params.chol_lower
    z = np.empty(params.mean.shape)
    for r, rng in enumerate(rngs):
        rng.standard_normal(out=z[r])
    if not (_all_true(np.isfinite(chol)) and _all_true(np.isfinite(z))):
        raise ValueError("Cholesky factor and noise must be finite")
    return params.mean + solve(chol.mT, z)
