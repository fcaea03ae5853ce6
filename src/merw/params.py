"""Model parameters and shared exception types.

The walk lives on the d-dimensional integer lattice and moves along the 2d
signed unit vectors.  Directions are indexed by an integer "colour" shared
with the urn representation: colour 2k encodes +e_{k+1} and colour 2k+1
encodes -e_{k+1} (0-based axes), so the walk position is always the vector
of pairwise colour-count differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real
from typing import Union

ProbabilityLike = Union[float, str, Fraction]


class ParameterError(ValueError):
    """Raised when d, p or q violate their admissible ranges."""


class RegimeError(ValueError):
    """Raised when an operation is evaluated outside its memory regime."""


class BudgetError(RuntimeError):
    """Raised when a requested computation exceeds a configured budget."""


def check_integer(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int, if it is an integer in [lo, hi] (no upper end when hi is None)."""
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    if (
        isinstance(value, bool)
        or not isinstance(value, Integral)
        or value < lo
        or (hi is not None and value > hi)
    ):
        raise ParameterError(f"{name}: expected an integer {span}, got {value!r}")
    return int(value)


def check_sequence(name: str, value) -> tuple:
    """``value``'s items as a tuple, if it is an iterable other than a string."""
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ParameterError(f"{name}: expected a sequence, got {value!r}")


def check_reals(name: str, value) -> tuple[float, ...]:
    """``value``'s items as floats, if it is a sequence of real numbers other than bools."""
    items = check_sequence(name, value)
    for x in items:
        if isinstance(x, bool) or not isinstance(x, Real):
            raise ParameterError(f"{name}: expected real numbers, got {x!r}")
    return tuple(map(float, items))


DEFAULT_STEP_BUDGET = 10**9
#: Most entries of the square arrays merw builds, the (2d)^2 mean replacement matrix and
#: the (T d)^2 snapshot covariance (whose checks grow with it): a fixed memory bound.
MAX_MATRIX_ENTRIES = 2**22


def check_entries(what: str, side: int) -> None:
    """Raise :class:`BudgetError` when a ``side`` x ``side`` array exceeds MAX_MATRIX_ENTRIES."""
    if side * side > MAX_MATRIX_ENTRIES:
        raise BudgetError(f"{what} would hold {side} x {side} = {side * side} entries, more "
                          f"than the {MAX_MATRIX_ENTRIES} that merw builds")


def check_budget(replicas: int, n: int, budget: int) -> None:
    """Raise :class:`BudgetError` when ``replicas`` runs of n steps exceed the budget (>= 1)."""
    budget = check_integer("step budget", budget, 1)
    if replicas * n > budget:
        raise BudgetError(
            f"the run needs {replicas} x {n} = {replicas * n} steps, exceeding the step "
            f"budget of {budget}; raise the budget to run anyway"
        )


def parse_probability(value: ProbabilityLike) -> tuple[float, Fraction | None]:
    """Normalize a probability given as float, Fraction or string.

    Strings ("3/4", "0.7") and Fractions are treated as exact rationals;
    plain floats are kept as-is with no exact representation attached, so
    that downstream regime classification can distinguish an exactly
    critical p from a decimal that merely lands close to it.
    """
    if isinstance(value, bool):
        raise ParameterError(f"probability must be numeric, got {value!r}")
    if isinstance(value, Fraction):
        return float(value), value
    if isinstance(value, str):
        try:
            exact = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as err:
            raise ParameterError(f"cannot parse probability {value!r}") from err
        return float(exact), exact
    if isinstance(value, int):
        return float(value), Fraction(value)
    if isinstance(value, float):
        return value, None
    raise ParameterError(f"unsupported probability type {type(value).__name__}")


@dataclass(frozen=True)
class ModelParams:
    """Walk parameters: dimension d, memory p, first-step weight q.

    p is the probability of repeating the remembered step; q is the
    probability that the very first step takes the designated direction
    +e_1 (colour 0).  Both must lie strictly inside (0, 1).

    ``p_exact``/``q_exact`` hold exact rationals when the inputs were given
    as strings or Fractions; they stay None for float inputs.
    """

    d: int
    p: float
    q: float = 0.5
    p_exact: Fraction | None = None
    q_exact: Fraction | None = None

    def __init__(self, d: int, p: ProbabilityLike, q: ProbabilityLike = 0.5):
        d = check_integer("dimension d", d, 1)
        p_float, p_exact = parse_probability(p)
        q_float, q_exact = parse_probability(q)
        if not 0.0 < p_float < 1.0:
            raise ParameterError(f"p must lie in the open interval (0, 1), got {p_float}")
        if not 0.0 < q_float < 1.0:
            raise ParameterError(f"q must lie in the open interval (0, 1), got {q_float}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "p", p_float)
        object.__setattr__(self, "q", q_float)
        object.__setattr__(self, "p_exact", p_exact)
        object.__setattr__(self, "q_exact", q_exact)

    @property
    def n_colours(self) -> int:
        return 2 * self.d

    def p_as_fraction(self) -> Fraction:
        """Exact value of p: the parsed rational, else the float's exact binary value."""
        return self.p_exact if self.p_exact is not None else Fraction(self.p)

    def q_as_fraction(self) -> Fraction:
        return self.q_exact if self.q_exact is not None else Fraction(self.q)

    def to_dict(self) -> dict:
        """JSON form shared by every output record: exact values as strings."""
        return {
            "d": self.d,
            "p": self.p,
            "p_exact": str(self.p_exact) if self.p_exact is not None else None,
            "q": self.q,
            "q_exact": str(self.q_exact) if self.q_exact is not None else None,
        }
