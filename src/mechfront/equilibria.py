"""Pure-equilibrium machinery on a discretized bid space.

Reports live on a finite grid {0, step, 2*step, ..., cap}.  A profile is a
pure Nash equilibrium when no machine can strictly raise its utility by
moving its own bid to any other grid point.  Because the rules are
task-independent, a whole-profile equilibrium is exactly a per-task
equilibrium column by column, so everything here works on one task's bid
vector at a time.

`enumerate_equilibria` decides all len(grid)^n profiles of a task without
building them.  The rules pay only the winner, so whether a profile is an
equilibrium depends on its winner, the winning bid, the second-lowest bid and
who holds that bid; the profiles sharing those are counted in closed form, in
O(n * len(grid)^2) work.  `verify_equilibrium` decides one profile the same
way: each machine faces only the lowest other bid and who holds it, so its
winning bids are a prefix of the grid, read off the bid indices.

`achievable_winners` is the analytic counterpart: without enumerating
anything it names, per task, the machines that win in *some* equilibrium:
those within the reserve of the fastest, {i : t_i <= reserve * min_k t_k},
boundary included, or with no reserve (sp) every machine below the sentinel
(a sentinel machine would need a payment at sentinel scale, which capped
reports cannot produce).

Without a reserve or above reserve 1, enumeration and the analytic sets agree
exactly when true times are positive grid multiples.  At reserve 1 (fp) the grid adds winners
the closed form omits: a lower-index runner-up exactly one step above the
fastest can win at utility 0 -- both bid the runner-up's time, the runner-up
keeps the tie-break, and the fastest gains nothing by undercutting a full
step.  So (2.7, 1.1, 1.0) enumerates {1, 2} while the closed form gives {2};
fp enumeration lies between the argmin set and the machines within one step
of it.  With a zero time one grid step away from a positive one the
continuum undercut falls between grid points and enumeration may certify an
extra winner; instances with zero entries are therefore handled analytically.

Grids anchor their points to caller-supplied values (instance entries), so
payments computed from grid points are bit-for-bit the payments computed from
the instance itself; boundary cases like t_i == alpha * t_min then resolve
identically on both routes.  A float reads as lattice index
k = round(value / step) when the quotient is finite and |k * step - value|
<= 1e-9 * max(1, |value|); `_lattice_index` holds that one dust rule, and
every cap, anchor, bid and fastest time here reads by it.  A grid point, the
common case of a bid, reads as its own index by one exact comparison
(`Grid.index_of` and `Grid.floor`); any other value reads by the dust rule,
which gives a grid point that same index.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

from .model import DEFAULT_BIG, GRID_STEP, BudgetExceededError, Instance, MechanismId
from .optsolver import EligibilityMask
from .rules import SingleTaskRule, rule_for

ENUMERATION_BUDGET = 10 ** 7


@dataclass(frozen=True, eq=False)
class Grid:
    """Bid grid {0, step, ..., cap}; `anchors` are values that must be
    representable exactly and replace their nearest generated point.
    `points` is a tuple of Python floats.  A grid of more than
    ENUMERATION_BUDGET points is refused before it is built."""

    step: float
    cap: float
    anchors: tuple = ()
    points: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be positive")
        if not math.isfinite(self.cap):
            raise ValueError(f"cap must be finite, got {self.cap}")
        ratio = self.cap / self.step
        if ratio >= ENUMERATION_BUDGET - 0.5:  # the point count would round past the budget
            raise BudgetExceededError(
                f"{ratio + 1:.0f} grid points exceed the enumeration budget {ENUMERATION_BUDGET}"
            )
        k = _lattice_index(self.cap, self.step)
        if k is None or k < 1:
            raise ValueError(f"cap {self.cap} is not a positive multiple of step {self.step}")
        import numpy as np  # one vectorized product beats a Python loop even at 81 points

        pts = (np.arange(k + 1) * self.step).tolist()
        for a in self.anchors:
            a = float(a)
            i = _lattice_index(a, self.step)
            if i is None or not 0 <= i <= k:
                raise ValueError(f"anchor {a} is not on the grid")
            pts[i] = a
        object.__setattr__(self, "points", tuple(pts))

    def __len__(self) -> int:
        return len(self.points)

    def index_of(self, value: float) -> int:
        """Index of the grid point `value` reads as; rejects off-grid values."""
        i = self._read(value)
        if i is None or not 0 <= i < len(self.points):
            raise self._off_grid(value)
        return i

    def floor(self, value: float) -> float:
        """The grid point `value` reads as, else the largest point below it."""
        i = self._read(value)
        if i is None or i >= len(self.points):
            i = bisect.bisect_right(self.points, value) - 1
        if i < 0:
            raise ValueError(f"{value} is below the grid")
        return self.points[i]

    def _read(self, value: float) -> int | None:
        """The lattice index `value` reads as, or None: a grid point reads as
        its own index by one exact comparison, any other value by
        `_lattice_index`, which gives a grid point that same index."""
        try:
            k = round(value / self.step)
            if k >= 0 and self.points[k] == value:
                return k
        except (OverflowError, ValueError, IndexError):  # inf, NaN, past the top
            pass
        return _lattice_index(value, self.step)

    def _off_grid(self, value: float) -> ValueError:
        return ValueError(f"{value} is not on the grid (step {self.step}, cap {self.cap})")


def _lattice_index(value: float, step: float) -> int | None:
    """The lattice index k that `value` reads as (see the module docstring),
    or None; 0.0 reads as 0, so callers test `is None`."""
    q = value / step
    k = round(q) if math.isfinite(q) else None
    return None if k is None or abs(k * step - value) > 1e-9 * max(1.0, abs(value)) else k


def default_grid(inst_or_times, mech: MechanismId, eps: float = GRID_STEP,
                 cap: float | None = None) -> Grid:
    """Grid {0, eps, ..., cap}; the default cap is reserve * (largest
    non-sentinel time) + 2 eps rounded up to a multiple of eps (1 without a
    reserve).  Non-sentinel grid multiples up to the cap are anchored, so the
    grid holds their exact values (the largest, where two round to one grid
    point); other entries cannot be bid."""
    if not eps > 0:
        raise ValueError("step must be positive")
    if isinstance(inst_or_times, Instance):
        entries = [x for row in inst_or_times.times for x in row]
        big = inst_or_times.big
    else:
        entries = [float(x) for x in inst_or_times]
        big = DEFAULT_BIG
    finite = [x for x in entries if x < big]
    if cap is None:
        reach = mech.reserve or 1.0
        max_fin = max(finite) if finite else 0.0
        steps = (reach * max_fin + 2 * eps) / eps - 1e-9
        if not math.isfinite(steps):
            raise ValueError(f"default cap {reach} * {max_fin} overflows in steps of {eps}")
        cap = max(2, math.ceil(steps)) * eps
    anchors = {k: x for x in sorted(finite)
               if x <= cap and (k := _lattice_index(x, eps)) is not None}
    return Grid(eps, cap, anchors=tuple(anchors.values()))


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
    the per-task winning machine.  Every grid deviation of every machine was
    decided in every column.
    """

    profile: tuple
    winner: tuple


def _bad_times(true_times) -> ValueError:
    return ValueError(f"true times must be finite and >= 0, got {tuple(true_times)}")


@functools.lru_cache(maxsize=256)
def _passed(checked_deviations: int) -> VerifyResult:
    """The one passing verdict per deviation count: it carries no witness.
    Bounded, since a process can meet any number of grid sizes."""
    return VerifyResult(True, None, None, 0.0, checked_deviations)


def verify_equilibrium(rule: SingleTaskRule, true_times, bids, grid: Grid) -> VerifyResult:
    """Decide every unilateral grid deviation of every machine in closed form.

    Each bid must read as a grid point (`Grid.index_of`: a grid point as
    itself by an exact comparison, any other value by the dust rule) and is
    judged as that point; each true time must be finite and >= 0.  Only the
    winner is paid, and machine i moving its bid faces the others' bids
    unchanged: with m_i = pts[k] the lowest of them and h_i the lowest index
    holding it, i wins at grid point p iff p < m_i, or p == m_i and i < h_i.
    For a loser m_i is the winning bid and h_i the winner, the first holder
    of the lowest bid; for the winner they are the lowest other bid and its
    first holder, found in the same pass over the bids.  So i's winning
    points are the grid's first k + 1 (i < h_i) or k, and on them i's
    utility `rule.pay(p, m_i) - t_i` never decreases: its best deviation is
    worth the prefix's last value, or 0 at the first losing point when that
    value is negative.  The witness is the best improving deviation, ties
    toward the lowest machine, then the lowest bid; a bisection, run for the
    witness alone, finds the first point reaching its value.
    `checked_deviations` counts the n * len(grid) deviations decided; every
    passing verdict with one count is one shared `VerifyResult`.
    """
    true_times = tuple(map(float, true_times))
    bids = tuple(map(float, bids))
    n = rule.n
    if len(true_times) != n or len(bids) != n:
        raise ValueError(f"expected {n} true times and bids")
    pts = grid.points
    g = len(pts)
    index_of = grid.index_of
    # w holds the lowest bid and h the lowest other, each the first holder
    w = h = n
    k_low = k_second = g  # above every index
    for i, b in enumerate(bids):
        k = index_of(b)  # raises when off-grid
        if k < k_low:
            w, k_low, h, k_second = i, k, w, k_low
        elif k < k_second:
            h, k_second = i, k
    low, second = pts[k_low], pts[k_second]
    best_gain, witness = 0.0, None
    for i, t in enumerate(true_times):
        if not 0.0 <= t < math.inf:  # NaN fails this test too
            raise _bad_times(true_times)
        if i == w:
            faced, k, holder, current = second, k_second, h, rule.pay(low, second) - t
        else:
            faced, k, holder, current = low, k_low, w, 0.0
        wins = k + 1 if i < holder else k
        u, top = 0.0, None  # None: the first losing point, pts[wins]
        if wins:
            value = rule.pay(pts[wins - 1], faced) - t
            if wins == g or value >= 0.0:
                u = top = value
        if u - current > best_gain:
            best_gain, witness = u - current, (i, faced, wins, top)
    if witness is None:
        return _passed(n * g)
    i, faced, x, top = witness
    if top is not None:  # the first winning point worth `top`
        t = true_times[i]
        x = bisect.bisect_left(pts, top, 0, x - 1, key=lambda p: rule.pay(p, faced) - t)
    return VerifyResult(False, i, pts[x], best_gain, n * g)


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """The grid equilibria of one task, counted per winner: `counts[i]` is
    the exact number of equilibrium profiles machine i wins (`len()` is
    their sum), `scanned` the len(grid)^n profiles the count decides, and
    `winner_union` the machines with a nonzero count."""

    counts: tuple
    scanned: int

    def __len__(self) -> int:
        return sum(self.counts)

    def winner_union(self) -> frozenset:
        return frozenset(i for i, k in enumerate(self.counts) if k)


def enumerate_equilibria(rule: SingleTaskRule, true_times, grid: Grid) -> EnumerationResult:
    """Count, per winner, the equilibria among all len(grid)^n profiles of
    one task, without building the profiles.

    Only the winner is paid, and its pay depends on the two lowest bids
    alone, so one `batch` call over the bid pairs a <= c (winner at pts[a],
    everyone else at pts[c]) gives the pay table T[a, c].  A profile with
    winner w, winning index a and second-lowest index c is stable when
      - every loser i < w gains nothing by tying at pts[a]: T[a,a] <= t[i];
      - every loser i > w gains nothing one step below: a == 0 or
        T[a-1,a] <= t[i];
      - the winner's U = T[a,c] - t[w] is at least its best deviation: if
        it keeps the tie at pts[c] (no loser below w bids pts[c]), winning
        at pts[c] and, unless pts[c] is the grid top, losing (utility 0);
        otherwise winning one step below pts[c], and losing.
    How many loser profiles share (w, a, c, tie class) depends on c alone
    once c > a, so the admissible a are counted per c with numpy and
    weighed by those multiplicities in Python ints: the counts are exact
    for any n >= 2.  Raises ValueError for a true time that is not finite
    and >= 0, TypeError for a rule that is not a SingleTaskRule
    (the closed form holds for fp, sp and spa only) and
    BudgetExceededError, before allocating anything, when the g(g+1)/2
    bid pairs exceed ENUMERATION_BUDGET.
    """
    if not isinstance(rule, SingleTaskRule):
        raise TypeError(f"enumerate_equilibria counts fp, sp and spa rules only, "
                        f"not {type(rule).__name__}")
    true_times = [float(x) for x in true_times]
    n = rule.n
    if len(true_times) != n:
        raise ValueError(f"expected {n} true times")
    if not all(0.0 <= x < math.inf for x in true_times):  # NaN fails this test too
        raise _bad_times(true_times)
    import numpy as np

    t = np.asarray(true_times)
    pts = np.asarray(grid.points)
    g = len(pts)
    pairs = g * (g + 1) // 2
    if pairs > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{pairs} bid pairs of a {g}-point grid exceed the enumeration budget "
            f"{ENUMERATION_BUDGET}"
        )
    r = np.arange(g)
    a_idx, c_idx = np.nonzero(r[:, None] <= r)
    _, pay = rule_for(rule.id, 2).batch(np.column_stack((pts[a_idx], pts[c_idx])))
    T = np.full((g, g), np.nan)  # nan below the diagonal: no profile has c < a
    T[a_idx, c_idx] = pay
    tie = np.diag(T)  # T[c, c]
    step_below = np.concatenate(([np.nan], np.diag(T, 1)))  # T[c-1, c]
    top = r == g - 1
    strict = r[:, None] < r
    counts = []
    for w in range(n):
        ok = np.ones(g, dtype=bool)  # the losers' conditions, per winning index a
        if w > 0:
            ok &= tie <= t[:w].min()
        if w < n - 1:
            ok[1:] &= step_below[1:] <= t[w + 1:].min()
        U = T - t[w]
        keep = (U >= tie - t[w]) & ((U >= 0) | top)
        lower = (U >= step_below - t[w]) & (U >= 0) & strict
        counts.append(_weigh(np.count_nonzero(keep[ok], axis=0),
                             np.count_nonzero(lower[ok], axis=0), w, n - 1 - w))
    return EnumerationResult(tuple(counts), g ** n)


def _weigh(keep, lower, below: int, above: int) -> int:
    """Sum over second-lowest indices c of keep[c] times the loser profiles
    in which no loser below the winner bids pts[c], plus lower[c] times those
    in which one does; `below` and `above` count the losers on each side of
    the winner."""
    g = len(keep)
    total = 0
    for c in (keep + lower).nonzero()[0].tolist():
        at_least, over = g - c, g - c - 1  # bids >= pts[c], bids > pts[c]
        total += int(keep[c]) * over ** below * (at_least ** above - over ** above) \
            + int(lower[c]) * (at_least ** below - over ** below) * at_least ** above
    return total


# ---------------------------------------------------------------------------
# analytic winner sets
# ---------------------------------------------------------------------------

def achievable_winners(mech: MechanismId, inst: Instance) -> EligibilityMask:
    """Per-task equilibrium winner sets, by closed form (no enumeration):
    allowed[j] = machines that win task j in some equilibrium."""
    if inst.n < 2:
        raise ValueError(f"{mech} needs n >= 2")
    reserve, big = mech.reserve, inst.big
    sets = []
    for col in zip(*inst.times):
        if reserve is None:  # sp: every machine below the sentinel
            winners = [i for i, t in enumerate(col) if t < big]
            if not winners:
                raise ValueError("task has no machine below the sentinel")
        else:
            # The closed bucket; reserve 1 keeps exactly t == t_min.  The
            # boundary machine t = reserve*t_min wins at pay reserve*t_min
            # with utility 0 and no grid deviation beats that, so <= (not <)
            # is the right comparison.
            cut = reserve * min(col)
            winners = [i for i, t in enumerate(col) if t <= cut]
        sets.append(winners)
    return EligibilityMask(tuple(sets))


# ---------------------------------------------------------------------------
# constructive equilibria
# ---------------------------------------------------------------------------

def canonical_certificate(mech: MechanismId, inst: Instance,
                          grid: Grid | None = None) -> EquilibriumCertificate:
    """A concrete verified whole-profile equilibrium for fp, sp, or spa,
    built column by column in one pass over the machines.

    Every machine tied at the fastest time t_min bids it; t_min must read
    as a grid point, w is the lowest-index fastest machine and `above` the
    grid point after t_min.  fp (reserve 1): the other machines after w pin
    it with the bid t_min, those before sit at `above`.  sp and spa: every
    other machine bids its time capped at the largest grid point <=
    reserve * t_min (the grid top for sp) and floored onto the grid, or
    `above` when that is not above t_min.  A column that needs `above` when
    t_min is the grid top is refused.

    Flooring shades a loser's report down by less than one step, which can
    only lose it money if it wins.  Every column is re-verified against the
    grid, and a failed construction raises ValueError.  Three kinds of
    column fail under spa with alpha > 1:
      - a zero fastest time: its winner is paid alpha * 0 = 0 and gains by
        raising its bid;
      - reserve * t_min floored back onto t_min: the losers sit at `above`,
        and the winner gains by tying there (the column (0.1, 0.8) under
        spa:1.5 is paid 0.15; at 0.2 it is paid 0.2, a gain of 0.05);
      - the losers' cap, the grid point read at reserve * t_min, a float's
        dust above it: the winner gains that dust by raising its bid (task
        1 of hat:n=2,alpha=4.1 under spa:2, whose loser bids
        8.200000000000001 against 2 * 4.1 = 8.2, gains 1.8e-15 at 4.2).
    """
    if grid is None:
        grid = default_grid(inst, mech)
    rule = rule_for(mech, inst.n)
    pts = grid.points
    columns, winners = [], []
    for j in range(inst.m):
        col = inst.column(j)
        t_min = min(col)
        k = grid._read(t_min)
        if k is None:
            raise ValueError(f"fastest time {t_min} of task {j} is not a grid multiple; "
                             f"pass a finer grid")
        if not 0 <= k < len(pts):
            raise grid._off_grid(t_min)
        w = col.index(t_min)
        # the point above, from the grid: t_min + step can miss it
        above = pts[k + 1] if k + 1 < len(pts) else math.inf
        top = pts[-1] if mech.reserve is None else grid.floor(min(mech.reserve * t_min, pts[-1]))
        bids = []
        for i, t in enumerate(col):
            if t == t_min:
                b = t_min
            elif mech.reserve == 1:
                b = t_min if i > w else above
            else:
                b = grid.floor(min(t, top))
                b = b if b > t_min else above
            if b == math.inf:
                raise ValueError(f"{t_min} is the top grid point; no bid above it")
            bids.append(b)
        res = verify_equilibrium(rule, col, bids, grid)
        if not res:
            raise ValueError(f"canonical construction failed for task {j}: machine "
                             f"{res.machine} gains {res.gain} at bid {res.deviation}")
        out_w, _ = rule.outcome(bids)
        if out_w != w:
            raise ValueError(f"canonical construction crowned {out_w}, expected {w}")
        columns.append(tuple(bids))
        winners.append(out_w)
    return EquilibriumCertificate(tuple(zip(*columns)), tuple(winners))
