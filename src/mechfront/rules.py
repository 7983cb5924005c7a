"""Single-task payment rules.

Each rule takes one reported bid per machine, awards the task to the lowest
bidder (lowest index on ties), and pays only the winner min(second-lowest
bid, reserve * own bid), with the mechanism's `reserve` (`MechanismId`).
`SingleTaskRule.pay` is the winner's payment given the lowest and the
second-lowest bid; `batch` scores many profiles at once with the same float
expressions, and `outcome` runs `batch` on a single profile.  `batch` and
`outcome` import numpy when called.  A mechanism applies its rule to every
task on its own.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import MechanismId


@dataclass(frozen=True)
class SingleTaskRule:
    """A single-task rule bound to a machine count n >= 2.  With one machine
    the only grid equilibrium bids the grid top, an artifact of the cap, so
    every mechanism, fp included, refuses it.

    `batch(B)` evaluates K profiles at once (B has shape (K, n)) and returns
    the winner index and the winner's payment per row; `outcome(bids)` is
    `batch` on one profile, returned as (int, float).  `pay(low, second)` is
    the payment of a winner bidding `low` when the lowest other bid is
    `second`, bit for bit what `batch` pays on such a row.
    """

    id: MechanismId
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"{self.id} needs n >= 2")

    def outcome(self, bids) -> tuple:
        if len(bids) != self.n:
            raise ValueError(f"expected {self.n} bids, got {len(bids)}")
        import numpy as np

        row = np.asarray(bids, dtype=float).reshape(1, self.n)
        if not (row >= 0).all():  # NaN fails this test too
            raise ValueError("bids must be >= 0")
        w, pay = self.batch(row)
        return int(w[0]), float(pay[0])

    def pay(self, low: float, second: float) -> float:
        reserve = self.id.reserve
        if reserve is None:
            return second
        capped = reserve * low
        return capped if capped < second else second  # min(second, capped), without a call

    def batch(self, B) -> tuple:
        import numpy as np

        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[1] != self.n:
            raise ValueError(f"batch expects shape (K, {self.n})")
        w = np.argmin(B, axis=1)  # argmin takes the first minimum: lowest index
        reserve = self.id.reserve
        lowest = np.partition(B, 1, axis=1)  # columns 0 and 1: lowest and second-lowest bid
        if reserve is None:
            return w, lowest[:, 1]
        return w, np.minimum(lowest[:, 1], reserve * lowest[:, 0])


def rule_for(mech: MechanismId, n: int) -> SingleTaskRule:
    return SingleTaskRule(mech, n)
