"""The four benchmark workloads and the inputs each one hands to merw.

Every workload is one *op*: a single battery call
(``merw.montecarlo.verify_*``) or a single ``merw simulate`` call through
``merw.cli.main``.  The shapes are fixed here; only the master seed comes
from the benchmark's ``--seed``.  See README.md for why each workload
exists.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    p: str  # exact rational, passed to merw verbatim
    replicas: int
    n: int
    fractions: tuple[float, ...]
    battery: str | None  # merw.montecarlo function name; None means `merw simulate`
    dominant: tuple[str, ...]  # layers expected to take most of the traced op

    @property
    def replica_steps(self) -> int:
        return self.replicas * self.n

    @property
    def p_exact(self) -> Fraction:
        return Fraction(self.p)

    def snapshot_times(self) -> list[int]:
        # same floor(s*n) rule, with the same tolerance, as merw uses
        return sorted({int(s * self.n + 1e-9) for s in self.fractions})


PERCENT_GRID = tuple(k / 100 for k in range(1, 101))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide",
            d=2, p="1/2", replicas=10_000, n=2_000, fractions=(0.5, 1.0),
            battery="verify_diffusive_clt",
            dominant=("ensemble.step_kernel", "ensemble.draw_prefetch"),
        ),
        Workload(
            name="deep",
            d=1, p="9/10", replicas=100, n=150_000, fractions=(1e-3, 1e-2, 1e-1, 1.0),
            battery="verify_slln",
            dominant=("ensemble.step_kernel",),
        ),
        Workload(
            name="grid",
            d=2, p="1/2", replicas=10_000, n=200, fractions=PERCENT_GRID,
            battery="verify_diffusive_clt",
            dominant=("ensemble.cross_moments",),
        ),
        Workload(
            name="dump",
            d=2, p="3/4", replicas=10_000, n=500, fractions=PERCENT_GRID,
            battery=None,
            dominant=("cli.serialize",),
        ),
    )
}


def import_merw():
    """Import merw from this checkout's src/ and from nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import merw.cli
    import merw.montecarlo

    if Path(merw.__file__).resolve().parent != SRC / "merw":
        raise ImportError(f"merw was imported from {merw.__file__}, not from {SRC}")
    return merw


def master_seed(workload: Workload, seed: int) -> int:
    """The merw master seed for one workload at one benchmark seed."""
    return random.Random(f"{workload.name}:{seed}").getrandbits(63)


def battery_config(workload: Workload, seed: int):
    """The EnsembleConfig a battery workload passes to merw.montecarlo."""
    from merw.ensemble import EnsembleConfig
    from merw.params import ModelParams

    return EnsembleConfig(
        params=ModelParams(d=workload.d, p=workload.p),
        replicas=workload.replicas,
        master_seed=master_seed(workload, seed),
        n=workload.n,
        snapshot_fractions=workload.fractions,
    )


def simulate_argv(workload: Workload, seed: int, out: Path) -> list[str]:
    """The `merw simulate` command line of the dump workload."""
    return [
        "simulate",
        "-d", str(workload.d),
        "-p", workload.p,
        "-n", str(workload.n),
        "--replicas", str(workload.replicas),
        "--fractions", ",".join(repr(s) for s in workload.fractions),
        "--format", "csv",
        "--seed", str(master_seed(workload, seed)),
        "--out", str(out),
    ]


def build_inputs(workload: Workload, seed: int, out: Path):
    """What one op of the workload is called with: a config or an argv list."""
    if workload.battery is None:
        return simulate_argv(workload, seed, out)
    return battery_config(workload, seed)
