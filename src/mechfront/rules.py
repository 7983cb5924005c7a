"""Single-task payment rules and the load-greedy baseline.

Each single-task rule takes one reported bid per machine, awards the task to
the lowest bidder (lowest index on ties), and pays only the winner:

  fp   -- the winner is paid its own bid.
  sp   -- the winner is paid the lowest bid among the other machines.
  spa  -- second price capped by a reserve of alpha times the winning bid:
          pay = min(second lowest bid, alpha * winning bid).  spa with
          alpha = 1 collapses to fp (the cap always binds at the own bid).

`SingleTaskRule.batch` is the one definition of all three; `outcome` runs it
on a single profile.

`payload_greedy` is a whole-profile mechanism kept around as a foil: it
assigns tasks in index order to the machine whose reported load would stay
lowest and pays each machine the sum of its winning reports.  It is not
task-independent, so none of the per-task equilibrium machinery applies.
Its placement over true times is the branch-and-bound solver's first incumbent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MechanismId, Outcome, StrategyProfile, UnsupportedMechanismError


def _greedy_placement(times, allowed) -> tuple:
    """Place tasks in index order, each on the machine of `allowed[j]`
    (ascending) whose load stays lowest, the first on ties.  `times` has one
    row per machine; returns the winners and the loads, summed in task order."""
    load = [0.0] * len(times)
    winner = []
    for j, machines in enumerate(allowed):
        w = min(machines, key=lambda i: load[i] + times[i][j])
        load[w] += times[w][j]
        winner.append(w)
    return winner, load


def payload_greedy(profile: StrategyProfile) -> Outcome:
    """Assign tasks in index order to the machine with the lowest reported load
    so far (lowest index on ties); pay every machine its winning reports,
    which add up to its reported load."""
    return Outcome(*_greedy_placement(profile.reports, [range(profile.n)] * profile.m))


@dataclass(frozen=True)
class SingleTaskRule:
    """A single-task rule bound to a machine count.

    `batch(B)` evaluates K profiles at once (B has shape (K, n)) and returns
    the winner index and the winner's payment per row; `outcome(bids)` is
    `batch` on one profile, returned as (int, float).
    """

    id: MechanismId
    n: int

    def __post_init__(self):
        if self.id.kind == "greedy":
            raise UnsupportedMechanismError("payload_greedy is not a single-task rule")
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

    def batch(self, B: np.ndarray) -> tuple:
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[1] != self.n:
            raise ValueError(f"batch expects shape (K, {self.n})")
        w = np.argmin(B, axis=1)  # argmin takes the first minimum: lowest index
        own = B[np.arange(len(B)), w]
        if self.id.kind == "fp":
            return w, own
        second = np.partition(B, 1, axis=1)[:, 1]
        if self.id.kind == "sp":
            return w, second
        return w, np.minimum(second, self.id.alpha * own)


def rule_for(mech: MechanismId, n: int) -> SingleTaskRule:
    return SingleTaskRule(mech, n)
