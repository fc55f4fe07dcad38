"""Seeded scenario parameters for the synth-lab workload.

Everything here is a pure function of the workload seed: the same seed
gives identical scenario parameters, and the program under test only ever
sees the generated inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Square roots of distinct primes are linearly independent over the
# rationals, so these steps give a sequence equidistributed in all six
# dimensions jointly (multiples of one irrational would tie them together).
STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13))
LN9 = math.log(9.0)  # a logistic sits at 10% of capacity ln(9)/b before its inflection


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one dual-logistic scenario (years 0 .. length-1)."""

    index: int
    length: int
    noise_rel: float
    k_old: float
    a_old: float
    b_old: float
    k_new: float
    a_new: float
    b_new: float
    seed: int

    @property
    def past_inflections(self) -> int:
        """First year past both inflection points."""
        return math.floor(max(self.a_old / self.b_old, self.a_new / self.b_new)) + 1


def scenario_spec(seed: int, index: int) -> ScenarioSpec:
    """The index-th scenario of a seed's stream.

    Lengths run 20-120 years, noise 0-0.1 (every fourth scenario is
    noise-free), rate ratios b_new / b_old 0.5-4.  Each curve reaches 10%
    of its capacity between 25% and 40% of the way through the series, so
    the early window at fraction 0.1 always holds enough years.
    """
    # A Kronecker (low-discrepancy) sequence: consecutive scenarios spread
    # evenly over the parameter ranges, so the mix in any run of a hundred
    # or more is close to uniform whatever the seed; the seed only shifts it.
    rng = random.Random(f"perfbench-synth-{seed}")
    u = [(rng.random() + index * step) % 1.0 for step in STEPS]
    length = 20 + int(u[0] * 101)
    noise = 0.0 if index % 4 == 0 else 0.1 * (1.0 - u[1])
    ratio = 0.5 * 8.0 ** u[2]  # log-uniform over [0.5, 4)
    b_old = 12.0 / length * (0.8 + 0.45 * u[3])
    b_new = b_old * ratio
    early_old = length * (0.25 + 0.15 * u[4])
    early_new = length * (0.25 + 0.15 * u[5])
    item = random.Random(f"perfbench-synth-{seed}-{index}")
    return ScenarioSpec(
        index=index,
        length=length,
        noise_rel=noise,
        k_old=item.uniform(500.0, 5000.0),
        a_old=b_old * (early_old + LN9 / b_old),
        b_old=b_old,
        k_new=item.uniform(500.0, 5000.0),
        a_new=b_new * (early_new + LN9 / b_new),
        b_new=b_new,
        seed=item.getrandbits(63),
    )
