"""Core objects for strategic scheduling on unrelated machines.

An instance has n machines and m tasks; entry times[i][j] is the true time
machine i needs for task j.  Machines report a time for every task, and a
mechanism awards each task on its own: one winner per task, paid by a
single-task rule (see `rules`).  A machine's utility is its total payment
minus the true time it spends on the tasks it won.  The makespan of a winner
vector is the largest total true load.

Entries at or above ``big`` are sentinels: "this machine effectively cannot
run this task".  The constructor enforces that the sentinel dominates any
conceivable finite schedule so that optimal assignments never touch it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

DEFAULT_BIG = 10 ** 6
GRID_STEP = 0.1  # the bid lattice's default step; random instances draw its multiples

MECHANISM_KINDS = ("fp", "sp", "spa")


class BudgetExceededError(RuntimeError):
    """An exhaustive computation would scan more states than its budget allows."""


def _as_matrix(rows) -> tuple:
    """The rows as float tuples, and the largest entry.

    One pass per row: `min` refuses a negative entry and `sum` a non-finite
    one (a NaN or inf entry makes the sum NaN or inf, which `min` and `max`
    can miss; a sum that overflows on finite entries is re-checked entry by
    entry), `max` gives the row's largest entry, and a row whose minimum is
    zero reads -0.0 as 0.0, so no zero time carries a sign."""
    out = []
    width = None
    top = -math.inf
    for r, row in enumerate(rows):
        try:
            row = tuple(map(float, row))
        except (TypeError, ValueError, OverflowError) as e:  # an int past the float range
            raise ValueError(f"times: row {r}: {e}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"times: row {r} has {len(row)} entries, expected {width}")
        if row:
            low = min(row)
            if not (low >= 0 and sum(row) < math.inf):
                bad = next((x for x in row if not math.isfinite(x) or x < 0), None)
                if bad is not None:
                    raise ValueError(f"times: entries must be finite and >= 0, got {bad}")
            if low == 0:  # the row holds a zero, maybe -0.0
                row = tuple([x + 0.0 for x in row])
            hi = max(row)
            if hi > top:
                top = hi
        out.append(row)
    if not out:
        raise ValueError("times: need at least one row")
    if not width:
        raise ValueError("times: need at least one column")
    return tuple(out), top


@dataclass(frozen=True)
class Instance:
    """True times for n machines (rows) over m tasks (columns), as float
    tuples; a zero time is stored as 0.0 whatever sign its input had."""

    times: tuple
    big: float = DEFAULT_BIG

    def __post_init__(self):
        times, top = _as_matrix(self.times)
        object.__setattr__(self, "times", times)
        try:
            finite = math.isfinite(self.big)
        except OverflowError:  # an int past the float range
            finite = False
        if not (self.big > 0 and finite):
            raise ValueError("big must be positive and finite")
        if not top < self.big:  # a sentinel row: the largest entry below big
            top = max((x for row in times for x in row if x < self.big), default=None)
        if top is not None:
            bound = 2 * (self.n + self.m) * top
            if not self.big > bound:
                raise ValueError(
                    f"big={self.big} does not dominate: need big > 2*(n+m)*max_finite = {bound}"
                )

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def m(self) -> int:
        return len(self.times[0])

    def column(self, j: int) -> tuple:
        """True-time vector of task j across machines."""
        return tuple(row[j] for row in self.times)

    def is_sentinel(self, value: float) -> bool:
        return value >= self.big


@dataclass(frozen=True)
class MechanismId:
    """Which mechanism: kind in {fp, sp, spa}; spa carries its
    multiplier alpha.  Every mechanism breaks ties toward the lowest machine
    index.

    The three are one family: the winner is paid min(second-lowest bid,
    `reserve` * own bid), fp is SP_1 (= spa:1) and sp is SP_inf (no reserve).
    Other modules read `reserve` alone, never `kind`."""

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.kind == "spa":
            if self.alpha is None or not 1 <= self.alpha < math.inf:
                raise ValueError(f"spa needs a finite alpha >= 1, got {self.alpha}")
            object.__setattr__(self, "alpha", float(self.alpha))
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} takes no alpha")

    # -- constructors / parsing ------------------------------------------------

    @staticmethod
    def fp() -> "MechanismId":
        return MechanismId("fp")

    @staticmethod
    def sp() -> "MechanismId":
        return MechanismId("sp")

    @staticmethod
    def spa(alpha: float) -> "MechanismId":
        return MechanismId("spa", alpha)

    @staticmethod
    def parse(text: str) -> "MechanismId":
        """Parse 'fp', 'sp', or 'spa:<alpha>'."""
        text = text.strip().lower()
        if text in ("fp", "sp"):
            return MechanismId(text)
        if text.startswith("spa:"):
            return MechanismId.spa(float(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse mechanism {text!r}")

    @functools.cached_property  # read by every payment: a plain attribute after the first
    def reserve(self) -> float | None:
        """The multiple of the winning bid that caps the winner's pay: 1.0
        for fp, alpha for spa, None for sp."""
        return 1.0 if self.kind == "fp" else self.alpha

    def __str__(self) -> str:
        if self.kind == "spa":
            return f"spa:{self.alpha:g}"
        return self.kind


def loads(inst: Instance, winner) -> list:
    """Per-machine total true load under the given task->machine assignment."""
    times = inst.times
    out = [0.0] * len(times)
    for j, w in enumerate(winner):
        out[w] += times[w][j]
    return out


def makespan(inst: Instance, winner) -> float:
    """Largest machine load under the task->machine assignment `winner`."""
    if len(winner) != inst.m:
        raise ValueError(f"assignment covers {len(winner)} tasks, instance has {inst.m}")
    return max(loads(inst, winner))
