"""Second implementations kept only as test oracles.

The scalar fp/sp/spa rules are the straightforward versions of
`SingleTaskRule.batch` and `SingleTaskRule.pay`; `per_machine_scan` is the
dense twin of the closed-form `verify_equilibrium`, scoring every grid bid of
every machine; `monotonicity_by_cube` is `monotonicity_check` building every
trial's true times at once as numpy arrays; `probe_by_ladder` is
`probe_matrix` climbing every rung of each ladder instead of bisecting it;
`apply` and `utility` play the whole game on complete report matrices with
the scalar rules; `enumerate_dense` is `enumerate_equilibria` as a scan of
every grid profile, and
`enumerate_by_verify` the same one profile at a time; `brute_force_makespan`
enumerates every assignment; `frontier_per_alpha` is `frontier_sweep` with
nothing shared between alphas or instances, by default over
`paper_frontier_suite`, the paper's three members per alpha, the hat at alpha
that the sweep leaves out included; `default_frontier_suite` is the one reader
of the sweep's private default suite; `on_grid`, `grid_index_of`, `grid_floor`
and `canonical_in_passes` are the lattice readings and the certificate
construction as they stood before `equilibria._lattice_index` owned the rule,
each reading measured from its own value (the construction since lets a tie at
the fastest time bid it, even at the grid top).  The tests compare the
production paths against them.
"""
import bisect
import itertools
import math

import numpy as np

from mechfront import analysis
from mechfront.analysis import FrontierPoint
from mechfront.equilibria import (
    EquilibriumCertificate,
    EnumerationResult,
    VerifyResult,
    achievable_winners,
    default_grid,
    enumerate_equilibria,
    verify_equilibrium,
)
from mechfront.instances import GeneratorSpec, gen_canonical
from mechfront.model import BudgetExceededError, MechanismId, loads
from mechfront.optsolver import opt_makespan, opt_makespan_masked
from mechfront.rules import rule_for

BRUTE_FORCE_BUDGET = 10 ** 7
DENSE_BUDGET = 10 ** 7


def _check_bids(bids) -> tuple:
    bids = tuple(float(b) for b in bids)
    if not bids:
        raise ValueError("need at least one bid")
    if any(b < 0 for b in bids):
        raise ValueError("bids must be >= 0")
    return bids


def _argmin(bids) -> int:
    w = 0
    for i in range(1, len(bids)):
        if bids[i] < bids[w]:
            w = i
    return w


def fp_rule(bids) -> tuple:
    """First price: winner = lowest bidder (lowest index on ties), paid its bid."""
    bids = _check_bids(bids)
    w = _argmin(bids)
    pay = [0.0] * len(bids)
    pay[w] = bids[w]
    return w, tuple(pay)


def sp_rule(bids) -> tuple:
    """Second price: winner paid the lowest bid among the other machines."""
    bids = _check_bids(bids)
    if len(bids) < 2:
        raise ValueError("second price needs at least two machines")
    w = _argmin(bids)
    pay = [0.0] * len(bids)
    pay[w] = min(b for i, b in enumerate(bids) if i != w)
    return w, tuple(pay)


def spa_rule(alpha: float, bids) -> tuple:
    """Second price with reserve alpha * winning bid; alpha >= 1."""
    if not alpha >= 1:
        raise ValueError("alpha must be >= 1")
    bids = _check_bids(bids)
    if len(bids) < 2:
        raise ValueError("second price with reserve needs at least two machines")
    w = _argmin(bids)
    second = min(b for i, b in enumerate(bids) if i != w)
    pay = [0.0] * len(bids)
    pay[w] = min(second, alpha * bids[w])
    return w, tuple(pay)


def scalar_outcome(mech, bids) -> tuple:
    """(winner, winner's payment) of one profile under the scalar rules."""
    if mech.kind == "fp":
        w, pay = fp_rule(bids)
    elif mech.kind == "sp":
        w, pay = sp_rule(bids)
    else:
        w, pay = spa_rule(mech.alpha, bids)
    return w, pay[w]


def apply(mech, reports) -> tuple:
    """Whole-game outcome of a report matrix (one row per machine): each
    column goes to the scalar rule; returns the winner of every task and
    every machine's total payment."""
    winner = []
    payments = [0.0] * len(reports)
    for col in zip(*reports):
        w, pay = scalar_outcome(mech, col)
        winner.append(w)
        payments[w] += pay
    return tuple(winner), tuple(payments)


def utility(mech, inst, reports, machine: int) -> float:
    """Total payment minus true time spent on won tasks, for one machine."""
    winner, payments = apply(mech, reports)
    spent = sum(inst.times[machine][j] for j, w in enumerate(winner) if w == machine)
    return payments[machine] - spent


def brute_force_makespan(inst, mask=None, objective: str = "min",
                         budget: int = BRUTE_FORCE_BUDGET) -> tuple:
    """Best ("min") or worst ("max") makespan over every mask-respecting
    assignment (every machine for every task when `mask` is None), the first
    in product order on ties; refuses more than `budget` assignments."""
    if objective not in ("min", "max"):
        raise ValueError("objective must be 'min' or 'max'")
    allowed = [range(inst.n)] * inst.m if mask is None else [sorted(s) for s in mask.allowed]
    if len(allowed) != inst.m or any(i >= inst.n for s in allowed for i in s):
        raise ValueError(f"mask does not fit a {inst.n}x{inst.m} instance")
    count = 1
    for s in allowed:
        count *= len(s)
        if count > budget:
            raise BudgetExceededError(f"assignment space exceeds budget {budget}")
    better = (lambda a, b: a < b) if objective == "min" else (lambda a, b: a > b)
    best_val = None
    best_assign = None
    for assign in itertools.product(*allowed):
        val = max(loads(inst, assign))
        if best_val is None or better(val, best_val):
            best_val = val
            best_assign = assign
    return best_val, tuple(best_assign)


def _ratio(value: float, opt: float) -> float:
    if opt > 0:
        return value / opt
    return 1.0 if value == 0 else math.inf


def default_frontier_suite(n: int, alpha: float) -> list:
    """The generator specs `frontier_sweep` sweeps at one alpha by default,
    in its order."""
    return list(analysis._default_sweeps(n, [alpha]))


def paper_frontier_suite(n: int, alpha: float) -> list:
    """The paper's constructions at one alpha: tilde, hat, and the hat just
    past the reach."""
    return [GeneratorSpec(name, (("n", n), ("alpha", at)))
            for name, at in (("tilde", alpha), ("hat", alpha), ("hat", alpha + 0.1))]


def frontier_per_alpha(n: int, alphas, suite=None) -> list:
    """`frontier_sweep` as a plain loop: every (alpha, instance) builds its
    instance, solves its optimum, computes its winner sets and runs both
    masked searches afresh, the best one even when the optimum is an
    equilibrium outcome.  `suite` defaults to `paper_frontier_suite` at each
    alpha."""
    points = []
    for alpha in map(float, alphas):
        mech = MechanismId.spa(alpha)
        poa, pos = [], []
        for spec in paper_frontier_suite(n, alpha) if suite is None else suite:
            inst = spec.build()
            opt, _ = opt_makespan(inst)
            mask = achievable_winners(mech, inst)
            poa.append(_ratio(opt_makespan_masked(inst, mask, "max")[0], opt))
            pos.append(_ratio(opt_makespan_masked(inst, mask, "min")[0], opt))
        points.append(FrontierPoint(alpha, (n - 1) * alpha + 1, (n - 1) / alpha + 1,
                                    max(poa), max(pos)))
    return points


def per_machine_scan(rule, true_times, bids, grid) -> VerifyResult:
    """verify_equilibrium by brute force: one tiled batch per machine scores
    each of its grid bids, and a machine replaces the witness only on a
    strict improvement over the best gain so far."""
    true_times = tuple(float(t) for t in true_times)
    bids = tuple(float(b) for b in bids)
    n = rule.n
    for b in bids:
        grid.index_of(b)
    pts = np.asarray(grid.points)
    g = len(pts)
    w0, pay0 = scalar_outcome(rule.id, bids)
    best_machine = None
    best_dev = None
    best_gain = 0.0
    for i in range(n):
        current = pay0 - true_times[i] if w0 == i else 0.0
        B = np.tile(np.asarray(bids), (g, 1))
        B[:, i] = pts
        winners, pay = rule.batch(B)
        u = np.where(winners == i, pay - true_times[i], 0.0)
        k = int(np.argmax(u))
        gain = float(u[k]) - current
        if gain > best_gain:
            best_machine = i
            best_dev = float(pts[k])
            best_gain = gain
    return VerifyResult(best_machine is None, best_machine, best_dev, best_gain, n * g)


def monotonicity_by_cube(mech, inst, cert, trials, seed, direction, grid) -> tuple:
    """`monotonicity_check`'s (trial, task) true-time columns, built as one
    (trials, n, m) cube from the same `uniform` draw, and its result."""
    rule = rule_for(mech, inst.n)
    times = np.asarray(inst.times)
    live = ~inst.is_sentinel(times)
    won = np.asarray(cert.winner) == np.arange(inst.n)[:, None]
    down = won if direction == "forward" else ~won
    u = np.zeros((trials,) + times.shape)
    u[:, live] = np.random.default_rng(seed).uniform(size=(trials, int(live.sum())))
    modified = np.where(live, np.where(down, times * u, times * (1.0 + u)), times)
    truths = modified.transpose(0, 2, 1).tolist()  # [trial][task] -> true-time column
    columns = list(zip(*cert.profile))
    failures = []
    for trial, cols in enumerate(truths):
        for j, (col, bids) in enumerate(zip(cols, columns, strict=True)):
            res = verify_equilibrium(rule, col, bids, grid)
            if not res:
                failures.append((trial, j, res.machine, res.deviation, res.gain))
    return truths, analysis.MonotonicityResult(not failures, trials, direction, tuple(failures))


def probe_by_ladder(rule, grid) -> tuple:
    """`probe_matrix` without its bisection: each (fast i, slow j) ladder
    climbs every rung k*eps of the grid, with no early stop, and a[i][j] is
    the largest rung at which j wins some equilibrium (0 when none)."""
    n, eps = rule.n, grid.step
    a = [[0.0] * n for _ in range(n)]
    for i, j in itertools.permutations(range(n), 2):
        for k in range(1, len(grid)):
            vec = gen_canonical(n, i, j, k * eps)
            if j in enumerate_equilibria(rule, vec, grid).winner_union():
                a[i][j] = k * eps
    return tuple(tuple(r) for r in a)


def enumerate_by_verify(rule, true_times, grid) -> list:
    """Every grid profile, in product order, that verify_equilibrium accepts."""
    return [bids for bids in itertools.product(grid.points, repeat=rule.n)
            if verify_equilibrium(rule, true_times, bids, grid).ok]


def _utility(winners, pay, true_times, machine):
    """Utility of `machine` in each row."""
    return np.where(winners == machine, pay - true_times[machine], 0.0)


def enumerate_dense(rule, true_times, grid) -> EnumerationResult:
    """Exhaustively test all len(grid)^n profiles of one task.

    The bid matrix is stacked once from broadcast views of the grid.  A
    profile is kept when, for every machine, its utility equals its best
    response against the others' bids -- computed as an axis-max over the
    utility cube, so the whole scan is a handful of vectorized passes.  The
    kept profiles' winners are counted per machine.  Any rule with a
    `batch` method will do.  Refuses more than DENSE_BUDGET profiles.
    """
    t = np.asarray([float(x) for x in true_times])
    n = rule.n
    if len(t) != n:
        raise ValueError(f"expected {n} true times")
    pts = np.asarray(grid.points)
    g = len(pts)
    total = g ** n
    if total > DENSE_BUDGET:
        raise BudgetExceededError(
            f"{g}^{n} = {total} profiles exceed the dense budget {DENSE_BUDGET}"
        )
    mesh = np.meshgrid(*([pts] * n), indexing="ij", copy=False)
    winners, pay = rule.batch(np.stack(mesh, axis=-1).reshape(total, n))
    eq = np.ones(total, dtype=bool)
    shape = (g,) * n
    for i in range(n):
        u = _utility(winners, pay, t, i).reshape(shape)
        eq &= (u == u.max(axis=i, keepdims=True)).reshape(-1)
    counts = np.bincount(winners[eq], minlength=n)
    return EnumerationResult(tuple(int(k) for k in counts), total)


def on_grid(value: float, step: float) -> bool:
    """Whether `value` is (within float dust) an integer multiple of step."""
    q = value / step
    return math.isfinite(q) and abs(round(q) * step - value) <= 1e-9 * max(1.0, abs(value))


def grid_index_of(grid, value: float) -> int:
    """`Grid.index_of` with the dust band centred on the grid's own point
    (an anchor, where one replaced k * step)."""
    q = float(value) / grid.step
    i = round(q) if math.isfinite(q) else -1
    if not (0 <= i < len(grid.points)) or \
            abs(grid.points[i] - value) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"{value} is not on the grid (step {grid.step}, cap {grid.cap})")
    return i


def grid_floor(grid, value: float) -> float:
    """`Grid.floor` as the largest grid point <= value plus its dust (none:
    -inf + inf would be NaN)."""
    v = float(value)
    v += 1e-9 * max(1.0, abs(v)) if math.isfinite(v) else 0.0
    i = bisect.bisect_right(grid.points, v) - 1
    if i < 0:
        raise ValueError(f"{value} is below the grid")
    return grid.points[i]


def _point_above(grid, value: float) -> float:
    i = grid_index_of(grid, value) + 1
    if i == len(grid.points):
        raise ValueError(f"{value} is the top grid point; no bid above it")
    return grid.points[i]


def canonical_in_passes(mech, inst, grid=None) -> EquilibriumCertificate:
    """`canonical_certificate` built in three passes per column: floor every
    report, lift every machine not tied at the fastest time from at or below
    it to the point above it, then put the ties back on it."""
    if grid is None:
        grid = default_grid(inst, mech)
    rule = rule_for(mech, inst.n)
    n, m = inst.n, inst.m
    cap = grid.points[-1]
    columns, winners = [], []
    for j in range(m):
        col = inst.column(j)
        t_min = min(col)
        if not on_grid(t_min, grid.step):
            raise ValueError(f"fastest time {t_min} of task {j} is not a grid multiple; "
                             f"pass a finer grid")
        w = min(i for i, t in enumerate(col) if t == t_min)
        if mech.reserve == 1:
            bids = [t_min if i >= w else _point_above(grid, t_min) for i in range(n)]
        else:
            reserve_floor = cap if mech.reserve is None else \
                grid_floor(grid, min(mech.reserve * t_min, cap))
            bids = [grid_floor(grid, min(col[i], reserve_floor)) for i in range(n)]
            for i in range(n):
                if col[i] != t_min and bids[i] <= t_min:
                    bids[i] = _point_above(grid, t_min)
            for i in range(n):
                if col[i] == t_min:
                    bids[i] = t_min
        res = verify_equilibrium(rule, col, bids, grid)
        if not res:
            raise ValueError(f"canonical construction failed for task {j}: machine "
                             f"{res.machine} gains {res.gain} at bid {res.deviation}")
        out_w, _ = rule.outcome(bids)
        if out_w != w:
            raise ValueError(f"canonical construction crowned {out_w}, expected {w}")
        columns.append(tuple(bids))
        winners.append(out_w)
    profile = tuple(tuple(columns[j][i] for j in range(m)) for i in range(n))
    return EquilibriumCertificate(profile, tuple(winners))
