"""Single-task payment rules.

Each rule takes one reported bid per machine, awards the task to the lowest
bidder (lowest index on ties), and pays only the winner:

  fp   -- the winner is paid its own bid.
  sp   -- the winner is paid the lowest bid among the other machines.
  spa  -- second price capped by a reserve of alpha times the winning bid:
          pay = min(second lowest bid, alpha * winning bid).  spa with
          alpha = 1 collapses to fp (the cap always binds at the own bid).

`SingleTaskRule.pay` is the winner's payment of each rule, given the lowest
and the second-lowest bid; `batch` scores many profiles at once with the same
float expressions, and `outcome` runs `batch` on a single profile.  A
mechanism applies its rule to every task on its own.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MechanismId


@dataclass(frozen=True)
class SingleTaskRule:
    """A single-task rule bound to a machine count.

    `batch(B)` evaluates K profiles at once (B has shape (K, n)) and returns
    the winner index and the winner's payment per row; `outcome(bids)` is
    `batch` on one profile, returned as (int, float).  `pay(low, second)` is
    the payment of a winner bidding `low` when the lowest other bid is
    `second`, bit for bit what `batch` pays on such a row.
    """

    id: MechanismId
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.id.kind in ("sp", "spa") and self.n < 2:
            raise ValueError(f"{self.id} needs n >= 2")

    def outcome(self, bids) -> tuple:
        if len(bids) != self.n:
            raise ValueError(f"expected {self.n} bids, got {len(bids)}")
        row = np.asarray(bids, dtype=float).reshape(1, self.n)
        if (row < 0).any():
            raise ValueError("bids must be >= 0")
        w, pay = self.batch(row)
        return int(w[0]), float(pay[0])

    def pay(self, low: float, second: float) -> float:
        if self.id.kind == "fp":
            return low
        if self.id.kind == "sp":
            return second
        return min(second, self.id.alpha * low)

    def batch(self, B: np.ndarray) -> tuple:
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[1] != self.n:
            raise ValueError(f"batch expects shape (K, {self.n})")
        w = np.argmin(B, axis=1)  # argmin takes the first minimum: lowest index
        if self.id.kind == "fp":
            return w, B.min(axis=1)
        lowest = np.partition(B, 1, axis=1)  # columns 0 and 1: lowest and second-lowest bid
        if self.id.kind == "sp":
            return w, lowest[:, 1]
        return w, np.minimum(lowest[:, 1], self.id.alpha * lowest[:, 0])


def rule_for(mech: MechanismId, n: int) -> SingleTaskRule:
    return SingleTaskRule(mech, n)
