"""Mathematics of the 2d-colour urn that reproduces the walk's law.

One ball is added per drawing: a ball is drawn uniformly, replaced, and a
ball of the same colour is added with probability p, otherwise a ball of a
uniformly chosen other colour.  Colour counts are the walk's per-direction
step counts, and the pairwise difference map recovers the walk position, so
the urn is not simulated on its own: it is read off the ensemble simulation
through :func:`project_counts`.  This module holds the exact added-colour
law (for the walk = urn enumeration), the difference map and the closed-form
spectral data of the mean replacement matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .params import ModelParams, ParameterError


def added_colour_distribution_exact(
    counts: Sequence[int], params: ModelParams
) -> list[Fraction]:
    """Law of the added ball's colour given the current composition, exactly.

    Per colour i: p * counts[i]/n + (1-p)/(2d-1) * (n-counts[i])/n.
    """
    twod = params.n_colours
    counts = [int(c) for c in counts]
    if len(counts) != twod:
        raise ParameterError(f"expected {twod} colour counts, got {len(counts)}")
    n = sum(counts)
    if n <= 0:
        raise ValueError("added_colour_distribution_exact requires a non-empty urn")
    p = params.p_as_fraction()
    off = (1 - p) / (twod - 1)
    return [p * Fraction(c, n) + off * Fraction(n - c, n) for c in counts]


def project_counts(counts: np.ndarray) -> np.ndarray:
    """Pairwise difference map from colour counts to the walk position.

    Component k of the result is counts[2k] - counts[2k+1]; works on a
    single count vector or on a batch with colours along the last axis.
    """
    counts = np.asarray(counts)
    if counts.shape[-1] % 2 != 0:
        raise ParameterError(f"count vector length must be even, got {counts.shape[-1]}")
    return counts[..., 0::2] - counts[..., 1::2]


def pairing_matrix(d: int) -> np.ndarray:
    """The d x 2d matrix P of the difference map: position = P @ counts."""
    P = np.zeros((d, 2 * d))
    for k in range(d):
        P[k, 2 * k] = 1.0
        P[k, 2 * k + 1] = -1.0
    return P


@dataclass(frozen=True)
class SpectralData:
    """Mean replacement matrix with its closed-form eigenstructure.

    The matrix is p on the diagonal and (1-p)/(2d-1) off it; its eigenvalues
    are 1 (simple, with right eigenvector v1 = (1/2d)(1,...,1) and left
    eigenvector u1 = (1,...,1)) and lambda2 = (2dp-1)/(2d-1) on the whole
    complement {x : sum(x) = 0}, of multiplicity 2d-1.
    """

    matrix: np.ndarray
    lambda1: float
    lambda2: float
    v1: np.ndarray
    u1: np.ndarray
    lambda2_multiplicity: int


def mean_replacement_matrix(params: ModelParams) -> SpectralData:
    """Construct the mean replacement matrix and its analytic spectral data.

    Everything is written down in closed form; no numerical eigensolver is
    involved.
    """
    d, p = params.d, params.p
    twod = 2 * d
    off = (1.0 - p) / (twod - 1)
    A = np.full((twod, twod), off)
    np.fill_diagonal(A, p)
    return SpectralData(
        matrix=A,
        lambda1=1.0,
        lambda2=(twod * p - 1.0) / (twod - 1.0),
        v1=np.full(twod, 1.0 / twod),
        u1=np.ones(twod),
        lambda2_multiplicity=twod - 1,
    )


def lambda2_eigenspace_basis(d: int) -> np.ndarray:
    """A basis of the zero-sum subspace, the eigenspace of lambda2.

    Rows are e_i - e_{i+1}, i = 0..2d-2: 2d-1 independent vectors, each
    orthogonal to u1.
    """
    twod = 2 * d
    basis = np.zeros((twod - 1, twod))
    for i in range(twod - 1):
        basis[i, i] = 1.0
        basis[i, i + 1] = -1.0
    return basis
