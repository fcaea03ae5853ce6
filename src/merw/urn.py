"""Mathematics of the 2d-colour urn that reproduces the walk's law.

One ball is added per drawing: a ball is drawn uniformly, replaced, and a
ball of the same colour is added with probability p, otherwise a ball of a
uniformly chosen other colour.  Colour counts are the walk's per-direction
step counts, and the pairwise difference map recovers the walk position, so
the urn is not simulated on its own: it is read off the ensemble simulation
through :func:`project_counts`.  This module writes each defining fact of
the model once: the first ball's colour law (the walk's first step), the
exact added-colour law (the walk's next-step law, which the exact
enumeration advances with), the difference map, the second eigenvalue
alpha = (2dp-1)/(2d-1), and the mean replacement matrix with its
closed-form eigenvalues and eigenvectors, which ``merw spectrum`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .params import ModelParams, ParameterError, check_integer


def first_colour_law(q, twod: int) -> list:
    """Law of the first ball's colour, which is the walk's first step.

    Colour 0 (+e_1) has probability q and each other colour (1-q)/(2d-1).
    Generic in q: a float gives floats, a Fraction gives exact rationals.
    """
    return [q] + [(1 - q) / (twod - 1)] * (twod - 1)


def second_eigenvalue(d: int, p):
    """alpha = (2dp-1)/(2d-1): the memory exponent, generic in p like :func:`first_colour_law`."""
    return (2 * d * p - 1) / (2 * d - 1)


def added_colour_distribution_exact(
    counts: Sequence[int], params: ModelParams
) -> list[Fraction]:
    """Law of the added ball's colour given the current composition, exactly.

    Per colour i: p * counts[i]/n + (1-p)/(2d-1) * (n-counts[i])/n.  Read
    with counts as the walk's per-direction step counts, this is the walk's
    next-step law: a past step is remembered with weight counts[i]/n and
    repeated with probability p.
    """
    twod = params.n_colours
    counts = list(counts)
    if len(counts) != twod:
        raise ParameterError(f"expected {twod} colour counts, got {len(counts)}")
    counts = [check_integer("colour counts", c, 0) for c in counts]
    n = sum(counts)
    if n == 0:
        raise ParameterError("added_colour_distribution_exact requires a non-empty urn")
    p = params.p_as_fraction()
    off = (1 - p) / (twod - 1)
    return [p * Fraction(c, n) + off * Fraction(n - c, n) for c in counts]


def project_counts(counts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise difference map from colour counts to the walk position.

    Component k of the result is counts[2k] - counts[2k+1]; works on a
    single count vector or on a batch with colours along the last axis.
    With ``out``, the positions are written into it and it is returned.
    """
    counts = np.asarray(counts)
    if counts.shape[-1] % 2 != 0:
        raise ParameterError(f"count vector length must be even, got {counts.shape[-1]}")
    return np.subtract(counts[..., 0::2], counts[..., 1::2], out=out)


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
        lambda2=second_eigenvalue(d, p),
        v1=np.full(twod, 1.0 / twod),
        u1=np.ones(twod),
        lambda2_multiplicity=twod - 1,
    )
