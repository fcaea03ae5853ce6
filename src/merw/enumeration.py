"""Exhaustive small-n distributions in exact rational arithmetic.

The walk is the 2d-colour urn read through the pairing map, so there is one
enumeration: the urn's colour-count vectors, which carry the full
conditional law, advance one drawing at a time with the added-colour law
(which is the walk's next-step law), and the final count distribution is
projected to lattice positions.  Probabilities are Fractions throughout, so
the results sum to exactly one.
"""

from __future__ import annotations

from fractions import Fraction

from .params import BudgetError, ModelParams, check_integer
from .urn import added_colour_distribution_exact, first_colour_law, project_counts

#: Largest n enumerated by default, per dimension.  The state space is the
#: set of weak compositions of n into 2d parts, so it grows quickly with d.
DEFAULT_N_BUDGET = {1: 6, 2: 4}
_FALLBACK_N_BUDGET = 3

#: A law over count vectors or lattice points, both keyed by integer tuples.
Pmf = dict[tuple[int, ...], Fraction]


def n_budget(d: int) -> int:
    return DEFAULT_N_BUDGET.get(d, _FALLBACK_N_BUDGET)


def _first_level(params: ModelParams) -> Pmf:
    twod = params.n_colours
    law = first_colour_law(params.q_as_fraction(), twod)
    return {tuple(int(c == colour) for c in range(twod)): prob for colour, prob in enumerate(law)}


def _advance(level: Pmf, params: ModelParams) -> Pmf:
    nxt: Pmf = {}
    for counts, prob in level.items():
        for colour, step_prob in enumerate(added_colour_distribution_exact(counts, params)):
            if step_prob == 0:
                continue
            child = list(counts)
            child[colour] += 1
            key = tuple(child)
            nxt[key] = nxt.get(key, Fraction(0)) + prob * step_prob
    return nxt


def project_pmf(counts_pmf: Pmf) -> Pmf:
    """Push a count distribution through the pairwise difference map."""
    out: Pmf = {}
    for counts, prob in counts_pmf.items():
        pos = tuple(project_counts(counts).tolist())
        out[pos] = out.get(pos, Fraction(0)) + prob
    return out


def exact_small_n_pmf(params: ModelParams, n: int, max_n: int | None = None) -> Pmf:
    """Exact law of the position S_n, as a map from lattice points to rationals.

    The urn's count distribution after n drawings, projected to positions.
    Exact p and q are taken from the params (rational inputs are used
    verbatim; float inputs use their exact binary values).

    n beyond the per-dimension budget raises BudgetError unless ``max_n``
    lifts it explicitly.
    """
    n = check_integer("n", n, 1)
    budget = n_budget(params.d) if max_n is None else check_integer("max_n", max_n, 1)
    if n > budget:
        raise BudgetError(
            f"enumeration of n = {n} at d = {params.d} exceeds the budget of "
            f"{budget} steps; pass max_n to override"
        )
    level = _first_level(params)
    for _ in range(n - 1):
        level = _advance(level, params)
    return project_pmf(level)
