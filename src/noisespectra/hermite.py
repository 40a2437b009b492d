"""Orthonormal probabilists' Hermite basis and per-cell quadrature projections.

The basis is he_k with E[he_j(Z) he_k(Z)] = delta_jk for standard normal Z,
i.e. He_k / sqrt(k!).  A cell increment with variance h is h**0.5 * Z, so the
cell-local coordinate fed to the basis is always increment / sqrt(h).
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import hermite_e

DEFAULT_QUADRATURE_POINTS = 64


def hermite_values(x: np.ndarray, max_degree: int) -> np.ndarray:
    """Array of shape (max_degree + 1, len(x)) with orthonormal he_k(x) rows."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((max_degree + 1, x.shape[0]))
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for k in range(1, max_degree):
        # orthonormal recurrence: x he_k = sqrt(k+1) he_{k+1} + sqrt(k) he_{k-1}
        out[k + 1] = (x * out[k] - np.sqrt(k) * out[k - 1]) / np.sqrt(k + 1)
    return out


@lru_cache(maxsize=8)
def gauss_rule(points: int = DEFAULT_QUADRATURE_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights so that E[g(Z)] ~= weights @ g(nodes)."""
    nodes, weights = hermite_e.hermegauss(points)
    return nodes, weights / weights.sum()


def project_scalar_map(
    fn: Callable[[np.ndarray], np.ndarray],
    scale: float,
    degree_cap: int,
) -> tuple[np.ndarray, float]:
    """Hermite coefficients of z -> fn(scale * z) up to degree_cap.

    Returns (coefficients c_0..c_D, mean_square) where mean_square is
    E[fn(scale Z)**2]; the per-cell truncation residual is
    mean_square - sum(c**2).
    """
    nodes, weights = gauss_rule()
    vals = np.asarray(fn(scale * nodes), dtype=np.float64)
    basis = hermite_values(nodes, degree_cap)
    coeffs = basis @ (weights * vals)
    mean_square = float(weights @ (vals * vals))
    return coeffs, mean_square


def pair_mean(
    fa: Callable[[np.ndarray], np.ndarray],
    fb: Callable[[np.ndarray], np.ndarray],
    scale: float,
) -> float:
    """E[fa(scale Z) fb(scale Z)] by quadrature; exact for polynomial maps."""
    nodes, weights = gauss_rule()
    va = np.asarray(fa(scale * nodes), dtype=np.float64)
    vb = np.asarray(fb(scale * nodes), dtype=np.float64)
    return float(weights @ (va * vb))
