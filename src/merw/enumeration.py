"""Exhaustive small-n distributions in exact rational arithmetic.

Both processes are enumerated over colour-count vectors, which carry the
full conditional law.  The walk enumeration advances states with the
remembered-step mixture law and projects counts to lattice positions at the
end; the urn enumeration advances with the draw-and-add law and returns the
count distribution itself.  Probabilities are Fractions throughout, so the
results sum to exactly one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .params import BudgetError, ModelParams, ParameterError
from .urn import added_colour_distribution_exact

#: Largest n enumerated by default, per dimension.  The state space is the
#: set of weak compositions of n into 2d parts, so it grows quickly with d.
DEFAULT_N_BUDGET = {1: 6, 2: 4}
_FALLBACK_N_BUDGET = 3

WalkPmf = dict[tuple[int, ...], Fraction]
UrnPmf = dict[tuple[int, ...], Fraction]


def n_budget(d: int) -> int:
    return DEFAULT_N_BUDGET.get(d, _FALLBACK_N_BUDGET)


def step_distribution_exact(counts: Sequence[int], params: ModelParams) -> list[Fraction]:
    """Walk law of the next step given direction counts, as exact rationals.

    Computed as the remembered-direction mixture: each past direction sigma
    is remembered with weight counts[sigma]/n and then contributes p to
    itself and (1-p)/(2d-1) to every other direction.
    """
    twod = params.n_colours
    counts = [int(c) for c in counts]
    if len(counts) != twod:
        raise ParameterError(f"expected {twod} direction counts, got {len(counts)}")
    n = sum(counts)
    if n <= 0:
        raise ValueError("step_distribution_exact requires at least one past step")
    p = params.p_as_fraction()
    off = (1 - p) / (twod - 1)
    out = [Fraction(0)] * twod
    for sigma, count in enumerate(counts):
        if count == 0:
            continue
        weight = Fraction(count, n)
        for tau in range(twod):
            out[tau] += weight * (p if tau == sigma else off)
    return out


def _first_level(params: ModelParams) -> UrnPmf:
    # the first step is +e_1 (colour 0) with probability q, else uniform other
    twod = params.n_colours
    q = params.q_as_fraction()
    other = (1 - q) / (twod - 1)
    level: UrnPmf = {}
    for colour in range(twod):
        counts = [0] * twod
        counts[colour] = 1
        level[tuple(counts)] = q if colour == 0 else other
    return level


def _advance(level: UrnPmf, params: ModelParams, law) -> UrnPmf:
    nxt: UrnPmf = {}
    for counts, prob in level.items():
        step_law = law(counts, params)
        for colour, step_prob in enumerate(step_law):
            if step_prob == 0:
                continue
            child = list(counts)
            child[colour] += 1
            key = tuple(child)
            nxt[key] = nxt.get(key, Fraction(0)) + prob * step_prob
    return nxt


def project_pmf(counts_pmf: UrnPmf) -> WalkPmf:
    """Push a count distribution through the pairwise difference map."""
    out: WalkPmf = {}
    for counts, prob in counts_pmf.items():
        pos = tuple(counts[2 * k] - counts[2 * k + 1] for k in range(len(counts) // 2))
        out[pos] = out.get(pos, Fraction(0)) + prob
    return out


def exact_small_n_pmf(
    params: ModelParams,
    n: int,
    engine: str = "walk",
    max_n: int | None = None,
):
    """Exact distribution after n steps, as a map to rational probabilities.

    engine="walk" returns the law of the position S_n keyed by lattice
    points; engine="urn" returns the law of the colour counts keyed by count
    vectors.  Exact p and q are taken from the params (rational inputs are
    used verbatim; float inputs use their exact binary values).

    n beyond the per-dimension budget raises BudgetError unless ``max_n``
    lifts it explicitly.
    """
    if engine not in ("walk", "urn"):
        raise ParameterError(f"engine must be 'walk' or 'urn', got {engine!r}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    budget = max_n if max_n is not None else n_budget(params.d)
    if n > budget:
        raise BudgetError(
            f"enumeration of n = {n} at d = {params.d} exceeds the budget of "
            f"{budget} steps; pass max_n to override"
        )
    level = _first_level(params)
    law = step_distribution_exact if engine == "walk" else added_colour_distribution_exact
    for _ in range(n - 1):
        level = _advance(level, params, law)
    if engine == "walk":
        return project_pmf(level)
    return level
