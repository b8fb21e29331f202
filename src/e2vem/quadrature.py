"""Gaussian quadrature on the reference triangle and the unit segment.

Triangle rules are conical products of a Gauss-Jacobi rule (absorbing the
collapsed-coordinate Jacobian) and a Gauss-Legendre rule, both from numpy
alone; a rule built for exactness ``d`` uses ``ceil((d+1)/2)**2`` points
and integrates every bivariate polynomial of total degree
``<= 2*ceil((d+1)/2) - 1`` exactly.
Segment rules are plain Gauss-Legendre mapped to [0, 1].
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import UnsupportedDegree

#: Largest exactness degree served by the rule generators.
MAX_DEGREE = 30


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on a reference domain.

    ``nodes`` has shape (m,) for segment rules (coordinates in [0, 1]) and
    (m, 2) for triangle rules (on the unit triangle x, y >= 0, x + y <= 1).
    Weights sum to the reference-domain measure.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def _node_count(degree: int) -> int:
    if degree < 0:
        raise UnsupportedDegree(f"negative quadrature degree {degree}")
    if degree > MAX_DEGREE:
        raise UnsupportedDegree(
            f"quadrature degree {degree} exceeds the generated maximum {MAX_DEGREE}")
    return max(1, (degree + 2) // 2)


@lru_cache(maxsize=None)
def segment_rule(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1] with ceil((degree+1)/2) nodes."""
    n = _node_count(degree)
    x, w = leggauss(n)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w)


def _gauss_jacobi(n: int):
    """The n-point Gauss-Jacobi rule on [-1, 1] for the weight 1 - x
    (alpha = 1, beta = 0), by the Golub-Welsch method (Math. Comp. 23,
    1969): the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the weight's orthonormal polynomials, and each weight
    is the weight's integral, 2, times the squared first component of the
    node's unit eigenvector."""
    k = np.arange(n)
    # the recurrence coefficients of the Jacobi polynomials at (1, 0)
    diagonal = -1.0 / ((2 * k + 1) * (2 * k + 3))
    off = np.sqrt(k[1:] * (k[1:] + 1.0)) / (2 * k[1:] + 1)
    nodes, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1)
                                    + np.diag(off, -1))
    return nodes, 2.0 * vectors[0] ** 2


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Conical-product rule on the unit triangle."""
    n = _node_count(degree)
    tj, wj = _gauss_jacobi(n)
    tl, wl = leggauss(n)
    # xi carries the (1 - xi) Jacobian weight, eta runs along cross sections
    xi = 0.5 * (tj + 1.0)
    wxi = 0.25 * wj
    eta = 0.5 * (tl + 1.0)
    weta = 0.5 * wl
    x = np.repeat(xi, n)
    y = (eta[None, :] * (1.0 - xi[:, None])).ravel()
    w = (wxi[:, None] * weta[None, :]).ravel()
    return QuadratureRule(np.column_stack([x, y]), w)
