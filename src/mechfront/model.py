"""Core objects for strategic scheduling on unrelated machines.

An instance has n machines and m tasks; entry times[i][j] is the true time
machine i needs for task j.  Machines report a time for every task, a
mechanism picks one winner per task and pays each machine, and a machine's
utility is its total payment minus the true time it spends on the tasks it
won.  The makespan of an outcome is the largest total true load.

Entries at or above ``big`` are sentinels: "this machine effectively cannot
run this task".  The constructor enforces that the sentinel dominates any
conceivable finite schedule so that optimal assignments never touch it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

DEFAULT_BIG = 10 ** 6

MECHANISM_KINDS = ("fp", "sp", "spa", "greedy")


class BudgetExceededError(RuntimeError):
    """An exhaustive computation would scan more states than its budget allows."""


class UnsupportedMechanismError(ValueError):
    """The requested analysis is not defined for this mechanism (e.g. the
    load-greedy baseline has no per-task equilibrium structure)."""


def _as_matrix(rows, what: str) -> tuple:
    out = []
    width = None
    for r, row in enumerate(rows):
        try:
            row = tuple(float(x) for x in row)
        except (TypeError, ValueError) as e:
            raise ValueError(f"{what}: row {r}: {e}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"{what}: row {r} has {len(row)} entries, expected {width}")
        for x in row:
            if math.isnan(x) or math.isinf(x) or x < 0:
                raise ValueError(f"{what}: entries must be finite and >= 0, got {x}")
        out.append(row)
    if not out:
        raise ValueError(f"{what}: need at least one row")
    if not width:
        raise ValueError(f"{what}: need at least one column")
    return tuple(out)


@dataclass(frozen=True)
class Instance:
    """True times for n machines (rows) over m tasks (columns)."""

    times: tuple
    big: float = DEFAULT_BIG

    def __post_init__(self):
        object.__setattr__(self, "times", _as_matrix(self.times, "times"))
        if not (self.big > 0) or math.isinf(self.big):
            raise ValueError("big must be positive and finite")
        finite = [x for row in self.times for x in row if x < self.big]
        if finite:
            bound = 2 * (self.n + self.m) * max(finite)
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

    @property
    def max_finite(self) -> float:
        """Largest non-sentinel entry (0.0 if every entry is a sentinel)."""
        vals = [x for row in self.times for x in row if x < self.big]
        return max(vals) if vals else 0.0

    def is_sentinel(self, value: float) -> bool:
        return value >= self.big


@dataclass(frozen=True)
class StrategyProfile:
    """Reported times, same shape as the instance's `times`."""

    reports: tuple

    def __post_init__(self):
        object.__setattr__(self, "reports", _as_matrix(self.reports, "reports"))

    @property
    def n(self) -> int:
        return len(self.reports)

    @property
    def m(self) -> int:
        return len(self.reports[0])

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.reports)


@dataclass(frozen=True)
class Outcome:
    """winner[j] is the machine that runs task j; payments has one entry per machine."""

    winner: tuple
    payments: tuple

    def __post_init__(self):
        object.__setattr__(self, "winner", tuple(int(w) for w in self.winner))
        object.__setattr__(self, "payments", tuple(float(p) for p in self.payments))
        n = len(self.payments)
        for j, w in enumerate(self.winner):
            if not 0 <= w < n:
                raise ValueError(f"winner[{j}]={w} out of range for {n} machines")
        for i, p in enumerate(self.payments):
            if p < 0 or math.isnan(p):
                raise ValueError(f"payments[{i}]={p} must be >= 0")


@dataclass(frozen=True)
class MechanismId:
    """Which mechanism: kind in {fp, sp, spa, greedy}; spa carries its
    multiplier alpha.  Every mechanism breaks ties toward the lowest machine
    index."""

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
    def greedy() -> "MechanismId":
        return MechanismId("greedy")

    @staticmethod
    def parse(text: str) -> "MechanismId":
        """Parse 'fp', 'sp', 'greedy', or 'spa:<alpha>'."""
        text = text.strip().lower()
        if text in ("fp", "sp", "greedy"):
            return MechanismId(text)
        if text.startswith("spa:"):
            return MechanismId.spa(float(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse mechanism {text!r}")

    def __str__(self) -> str:
        if self.kind == "spa":
            return f"spa:{self.alpha:g}"
        return self.kind


def loads(inst: Instance, winner) -> list:
    """Per-machine total true load under the given task->machine assignment."""
    out = [0.0] * inst.n
    for j, w in enumerate(winner):
        out[w] += inst.times[w][j]
    return out


def makespan(inst: Instance, out: Outcome | tuple) -> float:
    """Largest machine load under `out` (an Outcome or a raw winner vector)."""
    winner = out.winner if isinstance(out, Outcome) else out
    if len(winner) != inst.m:
        raise ValueError(f"assignment covers {len(winner)} tasks, instance has {inst.m}")
    return max(loads(inst, winner))


def apply(mech: MechanismId, profile: StrategyProfile) -> Outcome:
    """Run the mechanism on reported times and return winners plus payments."""
    from . import rules  # local import: rules builds on these types

    if mech.kind == "greedy":
        return rules.payload_greedy(profile)
    rule = rules.rule_for(mech, profile.n)
    winner, pay = rule.batch([profile.column(j) for j in range(profile.m)])
    payments = [0.0] * profile.n
    for w, p in zip(winner.tolist(), pay.tolist()):
        payments[w] += p
    return Outcome(winner, payments)


def utility(mech: MechanismId, inst: Instance, profile: StrategyProfile, machine: int) -> float:
    """Payment received minus true time spent on won tasks, for one machine."""
    if inst.n != profile.n or inst.m != profile.m:
        raise ValueError("instance and profile shapes differ")
    if not 0 <= machine < inst.n:
        raise ValueError(f"machine {machine} out of range")
    out = apply(mech, profile)
    spent = sum(inst.times[machine][j] for j, w in enumerate(out.winner) if w == machine)
    return out.payments[machine] - spent
