"""Pure-equilibrium machinery on a discretized bid space.

Reports live on a finite grid {0, step, 2*step, ..., cap}.  A profile is a
pure Nash equilibrium when no machine can strictly raise its utility by
moving its own bid to any other grid point.  Because the fp/sp/spa rules are
task-independent, a whole-profile equilibrium is exactly a per-task
equilibrium column by column, so everything here works on one task's bid
vector at a time.

`achievable_winners` is the analytic counterpart: without enumerating
anything it names, per task, the machines that win in *some* equilibrium:

  fp        -- the true-fastest machines (argmin set),
  spa:alpha -- every machine within factor alpha of the fastest, boundary
               included: {i : t_i <= alpha * min_k t_k}; alpha = 1 gives the
               fp rule's set,
  sp        -- every machine whose time is below the sentinel (a sentinel
               machine would need a payment at sentinel scale, which capped
               reports cannot produce).

For sp and spa, enumeration and the analytic sets agree exactly when true
times are positive grid multiples.  For fp the grid adds winners the closed
form omits: a lower-index runner-up exactly one step above the fastest can
win at utility 0 -- both bid the runner-up's time, the runner-up keeps the
tie-break, and the fastest gains nothing by undercutting a full step.  So
(2.7, 1.1, 1.0) enumerates {1, 2} while the closed form gives {2}; fp
enumeration lies between the argmin set and the machines within one step of
it.  With a zero time one grid step away from a positive one the continuum
undercut falls between grid points and enumeration may certify an extra
winner; instances with zero entries are therefore handled analytically.

Grids anchor their points to caller-supplied values (instance entries), so
payments computed from grid points are bit-for-bit the payments computed from
the instance itself; boundary cases like t_i == alpha * t_min then resolve
identically on both routes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    DEFAULT_BIG,
    BudgetExceededError,
    Instance,
    MechanismId,
    UnsupportedMechanismError,
)
from .optsolver import EligibilityMask
from .rules import SingleTaskRule, rule_for

ENUMERATION_BUDGET = 10 ** 7


@dataclass(frozen=True, eq=False)
class Grid:
    """Bid grid {0, step, ..., cap}; `anchors` are values that must be
    representable exactly and replace their nearest generated point."""

    step: float
    cap: float
    anchors: tuple = ()
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be positive")
        k = round(self.cap / self.step)
        if k < 1 or abs(k * self.step - self.cap) > 1e-9 * max(1.0, self.cap):
            raise ValueError(f"cap {self.cap} is not a positive multiple of step {self.step}")
        pts = np.arange(k + 1) * self.step
        for a in self.anchors:
            a = float(a)
            i = round(a / self.step)
            if not (0 <= i <= k) or abs(pts[i] - a) > 1e-9 * max(1.0, abs(a)):
                raise ValueError(f"anchor {a} is not on the grid")
            pts[i] = a
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def index_of(self, value: float) -> int:
        """Index of a grid value; rejects off-grid values."""
        i = round(float(value) / self.step)
        if not (0 <= i < len(self.points)) or \
                abs(self.points[i] - value) > 1e-9 * max(1.0, abs(value)):
            raise ValueError(f"{value} is not on the grid (step {self.step}, cap {self.cap})")
        return i

    def floor(self, value: float) -> float:
        """Largest grid point <= value (tolerating float dust just above)."""
        v = float(value) + 1e-9 * max(1.0, abs(value))
        i = int(np.searchsorted(self.points, v, side="right")) - 1
        if i < 0:
            raise ValueError(f"{value} is below the grid")
        return float(self.points[i])


def on_grid(value: float, step: float) -> bool:
    """Whether `value` is (within float dust) an integer multiple of step."""
    k = round(value / step)
    return abs(k * step - value) <= 1e-9 * max(1.0, abs(value))


def default_grid(inst_or_times, mech: MechanismId, eps: float = 0.1) -> Grid:
    """Grid sized to the instance: cap = alpha * (largest non-sentinel time)
    + 2 eps, with alpha = 1 for fp/sp.  Non-sentinel entries that are grid
    multiples are anchored (replacing the generated float with the entry's
    exact value); off-grid entries are simply not representable as bids."""
    if isinstance(inst_or_times, Instance):
        entries = [x for row in inst_or_times.times for x in row]
        big = inst_or_times.big
    else:
        entries = [float(x) for x in inst_or_times]
        big = DEFAULT_BIG
    finite = [x for x in entries if x < big]
    alpha_eff = mech.alpha if mech.kind == "spa" else 1.0
    max_fin = max(finite) if finite else 0.0
    k = max(2, math.ceil((alpha_eff * max_fin + 2 * eps) / eps - 1e-9))
    anchors = tuple(sorted({x for x in finite if on_grid(x, eps)}))
    return Grid(eps, k * eps, anchors=anchors)


# ---------------------------------------------------------------------------
# verification and enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyResult:
    """ok == True means no machine has a strictly improving grid deviation.
    Otherwise `machine`, `deviation`, `gain` describe the best one found."""

    ok: bool
    machine: int | None
    deviation: float | None
    gain: float
    checked_deviations: int

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class EquilibriumCertificate:
    """A profile plus what was checked to call it an equilibrium.

    `profile` is an n x m report matrix (one column per task) and `winner`
    the per-task winning machine.  scope "grid" means every grid deviation
    was scanned; "analytic" marks certificates built from closed forms.
    """

    profile: tuple
    scope: str
    winner: tuple
    checked_deviations: int

    def __post_init__(self):
        if self.scope not in ("grid", "analytic"):
            raise ValueError("scope must be 'grid' or 'analytic'")


def _utilities(rule: SingleTaskRule, true_times, B: np.ndarray, machine: int) -> np.ndarray:
    winners, pay = rule.batch(B)
    return np.where(winners == machine, pay - true_times[machine], 0.0)


def verify_equilibrium(rule: SingleTaskRule, true_times, bids, grid: Grid) -> VerifyResult:
    """Scan every unilateral grid deviation of every machine.

    `bids` must already be grid points.  The returned witness is the best
    improving deviation (ties toward the lowest bid).
    """
    true_times = tuple(float(t) for t in true_times)
    bids = tuple(float(b) for b in bids)
    n = rule.n
    if len(true_times) != n or len(bids) != n:
        raise ValueError(f"expected {n} true times and bids")
    for b in bids:
        grid.index_of(b)  # raises when off-grid

    pts = grid.points
    g = len(pts)
    w0, pay0 = rule.outcome(bids)
    base = np.asarray(bids)
    best_machine = None
    best_dev = None
    best_gain = 0.0
    for i in range(n):
        current = pay0 - true_times[i] if w0 == i else 0.0
        B = np.tile(base, (g, 1))
        B[:, i] = pts
        u = _utilities(rule, true_times, B, i)
        k = int(np.argmax(u))
        gain = float(u[k]) - current
        if gain > best_gain:
            best_machine = i
            best_dev = float(pts[k])
            best_gain = gain
    ok = best_machine is None
    return VerifyResult(ok, best_machine, best_dev, best_gain, n * g)


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """All grid equilibria of one task: profiles (K x n) and winners (K,).

    Iterating yields one EquilibriumCertificate per profile; `winner_union`
    is the deduplicated set of equilibrium winners.
    """

    rule: SingleTaskRule
    true_times: tuple
    grid: Grid
    profiles: np.ndarray
    winners: np.ndarray
    scanned: int

    def __len__(self) -> int:
        return len(self.profiles)

    def winner_union(self) -> frozenset:
        return frozenset(int(w) for w in np.unique(self.winners))

    def __iter__(self):
        per_profile = self.rule.n * len(self.grid)
        for row, w in zip(self.profiles, self.winners):
            yield EquilibriumCertificate(
                profile=tuple((float(b),) for b in row),
                scope="grid",
                winner=(int(w),),
                checked_deviations=per_profile,
            )


def enumerate_equilibria(rule: SingleTaskRule, true_times, grid: Grid,
                         budget: int = ENUMERATION_BUDGET) -> EnumerationResult:
    """Exhaustively test all len(grid)^n profiles of one task.

    A profile is kept when, for every machine, its utility equals its best
    response against the others' bids -- computed as an axis-max over the
    utility cube, so the whole scan is a handful of vectorized passes.
    Refuses to start when the profile count exceeds `budget`.
    """
    true_times = tuple(float(t) for t in true_times)
    n = rule.n
    if len(true_times) != n:
        raise ValueError(f"expected {n} true times")
    pts = grid.points
    g = len(pts)
    total = g ** n
    if total > budget:
        raise BudgetExceededError(
            f"{g}^{n} = {total} profiles exceed the enumeration budget {budget}"
        )
    mesh = np.meshgrid(*([pts] * n), indexing="ij")
    B = np.stack([ax.reshape(-1) for ax in mesh], axis=1)
    winners, pay = rule.batch(B)
    eq = np.ones(total, dtype=bool)
    shape = (g,) * n
    for i in range(n):
        u = np.where(winners == i, pay - true_times[i], 0.0).reshape(shape)
        eq &= (u == u.max(axis=i, keepdims=True)).reshape(-1)
    return EnumerationResult(rule, true_times, grid, B[eq], winners[eq], total)


# ---------------------------------------------------------------------------
# analytic winner sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WinnerSets:
    """allowed[j] = machines that win task j in some equilibrium."""

    allowed: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "allowed", tuple(frozenset(int(i) for i in s) for s in self.allowed)
        )

    def to_mask(self) -> EligibilityMask:
        return EligibilityMask(self.allowed)


def _column_winners(mech: MechanismId, col, big: float) -> frozenset:
    t_min = min(col)
    if mech.kind == "fp" or (mech.kind == "spa" and mech.alpha == 1):
        return frozenset(i for i, t in enumerate(col) if t == t_min)
    if mech.kind == "sp":
        s = frozenset(i for i, t in enumerate(col) if t < big)
        if not s:
            raise ValueError("task has no machine below the sentinel")
        return s
    # spa, alpha > 1: the closed bucket.  The boundary machine t = alpha*t_min
    # wins at payment exactly alpha*t_min with utility 0, and no grid deviation
    # beats that, so <= (not <) is the correct comparison.
    return frozenset(i for i, t in enumerate(col) if t <= mech.alpha * t_min)


def achievable_winners(mech: MechanismId, inst: Instance) -> WinnerSets:
    """Per-task equilibrium winner sets, by closed form (no enumeration)."""
    if mech.kind == "greedy":
        raise UnsupportedMechanismError(
            "payload_greedy is not task-independent; no winner-set analysis"
        )
    if mech.kind in ("sp", "spa") and inst.n < 2:
        raise ValueError(f"{mech} needs n >= 2")
    return WinnerSets(
        tuple(_column_winners(mech, inst.column(j), inst.big) for j in range(inst.m))
    )


# ---------------------------------------------------------------------------
# constructive equilibria
# ---------------------------------------------------------------------------

def equilibrium_template_spa(alpha: float, true_times, target: int, eps: float) -> tuple:
    """Bids making `target` the spa winner of a single task, alpha > 1.

    Slower-than-fastest targets bid the fastest time while everyone else bids
    the target's time (payment = the target's own time, utility 0).  A
    tied-fastest target bids its time while the rest sit one step above,
    which needs eps < (alpha - 1) * t_min so the step stays under the
    reserve.  Raises ValueError when the target is outside the bucket or the
    step is too coarse.
    """
    if not alpha > 1:
        raise ValueError("template needs alpha > 1")
    if not eps > 0:
        raise ValueError("eps must be positive")
    t = tuple(float(x) for x in true_times)
    n = len(t)
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range")
    t_min = min(t)
    if not t[target] <= alpha * t_min:
        raise ValueError(
            f"target {target} (time {t[target]}) is outside the bucket: "
            f"{t[target]} > {alpha} * {t_min}"
        )
    if t[target] > t_min:
        bids = [t[target]] * n
        bids[target] = t_min
    else:
        if not t_min + eps < alpha * t_min:
            raise ValueError(
                f"eps {eps} too coarse for a tied-fastest target: need "
                f"t_min + eps < alpha * t_min = {alpha * t_min}"
            )
        bids = [t_min + eps] * n
        bids[target] = t_min
    # the target is the unique lowest bidder by construction; if a lower-index
    # machine ever matched it, step the target down to reclaim the tie-break
    while any(i < target and bids[i] <= bids[target] for i in range(n)) and bids[target] - eps >= 0:
        bids[target] -= eps
    return tuple(bids)


def _point_above(grid: Grid, value: float) -> float:
    """The grid point one step above `value`, taken from the grid itself:
    the float sum value + step can miss an anchored or generated point."""
    i = grid.index_of(value) + 1
    if i == len(grid.points):
        raise ValueError(f"{value} is the top grid point; no bid above it")
    return float(grid.points[i])


def canonical_certificate(mech: MechanismId, inst: Instance,
                          grid: Grid | None = None) -> EquilibriumCertificate:
    """A concrete verified whole-profile equilibrium for fp, sp, or spa.

    fp:  the fastest machine bids its time; higher-index machines pin it with
         the same bid, lower-index ones sit a step above.
    sp:  the fastest machine bids its time; everyone else reports truthfully,
         floored onto the grid and capped at the grid top.
    spa: the argmin set bids the fastest time; everyone else bids its own
         time capped at the largest grid point <= alpha * t_min, so the
         winner's payment never exceeds the reserve.

    Off-grid losing times are floored (a slower machine may shade its report
    down by less than one step, which can only lose it money if it wins), but
    each column's fastest time itself must be a grid point.  Every column is
    re-verified against the grid before the certificate is returned;
    construction failures raise ValueError.
    """
    if mech.kind == "greedy":
        raise UnsupportedMechanismError("no canonical equilibrium for payload_greedy")
    if grid is None:
        grid = default_grid(inst, mech)
    rule = rule_for(mech, inst.n)
    n, m = inst.n, inst.m
    cap = float(grid.points[-1])
    step = grid.step
    columns = []
    winners = []
    checked = 0
    for j in range(m):
        col = inst.column(j)
        t_min = min(col)
        if not on_grid(t_min, step):
            raise ValueError(
                f"fastest time {t_min} of task {j} is not a grid multiple; "
                f"pass a finer grid"
            )
        w = min(i for i, t in enumerate(col) if t == t_min)
        if mech.kind == "fp" or (mech.kind == "spa" and mech.alpha == 1):
            bids = [t_min if i >= w else _point_above(grid, t_min) for i in range(n)]
        else:
            if mech.kind == "sp":
                reserve_floor = cap
            else:
                reserve_floor = grid.floor(min(mech.alpha * t_min, cap))
            bids = [grid.floor(min(col[i], reserve_floor)) for i in range(n)]
            for i in range(n):
                if i != w and bids[i] <= t_min:
                    bids[i] = _point_above(grid, t_min)
            for i in range(n):
                if col[i] == t_min:
                    bids[i] = t_min
        res = verify_equilibrium(rule, col, bids, grid)
        if not res:
            raise ValueError(
                f"canonical construction failed for task {j}: machine "
                f"{res.machine} gains {res.gain} at bid {res.deviation}"
            )
        out_w, _ = rule.outcome(bids)
        if out_w != w:
            raise ValueError(f"canonical construction crowned {out_w}, expected {w}")
        columns.append(tuple(bids))
        winners.append(out_w)
        checked += res.checked_deviations
    profile = tuple(tuple(columns[j][i] for j in range(m)) for i in range(n))
    return EquilibriumCertificate(profile, "grid", tuple(winners), checked)


def verify_certificate(mech: MechanismId, inst: Instance, cert: EquilibriumCertificate,
                       grid: Grid | None = None,
                       true_times=None) -> VerifyResult:
    """Re-check a whole-profile certificate column by column.

    `true_times` optionally overrides the instance's matrix (same shape) --
    used to probe how robust an equilibrium is to changes in the truth.
    Returns the first failing column's result, or the last column's success.
    """
    if mech.kind == "greedy":
        raise UnsupportedMechanismError("certificates only exist for single-task rules")
    if grid is None:
        grid = default_grid(inst, mech)
    times = inst.times if true_times is None else tuple(tuple(r) for r in true_times)
    rule = rule_for(mech, inst.n)
    last = None
    for j in range(inst.m):
        col = tuple(times[i][j] for i in range(inst.n))
        bids = tuple(cert.profile[i][j] for i in range(inst.n))
        last = verify_equilibrium(rule, col, bids, grid)
        if not last:
            return last
    if last is None:
        raise ValueError("certificate covers no tasks")
    return last
