"""Inefficiency ratios, frontier sweeps, and property checks.

Per-instance inefficiency of a mechanism is measured over its equilibrium
winner sets: the worst / best equilibrium makespan divided by the true
optimum.  Those per-instance ratios are *lower-bound evidence* for the
mechanism's price of anarchy / stability, never upper bounds: the analytic
bounds ((n-1)*alpha + 1 for the worst case, (n-1)/alpha + 1 for the best
case) are what the frontier sweep reports next to the measured values.

When the optimum is 0 and an equilibrium makespan is positive the ratio is
reported as inf (a mechanism wasting any time on a free instance is
unboundedly inefficient); 0/0 counts as 1.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

from .equilibria import (
    EquilibriumCertificate,
    Grid,
    achievable_winners,
    canonical_certificate,
    default_grid,
    enumerate_equilibria,
    verify_equilibrium,
)
from .instances import GeneratorSpec, gen_canonical, gen_circulant, regression_suite
from .model import GRID_STEP, BudgetExceededError, Instance, MechanismId, echo_count
from .optsolver import opt_makespan, opt_makespan_masked
from .rules import SingleTaskRule, rule_for

SQRT2 = math.sqrt(2.0)
PROBE_BUDGET = 10 ** 5  # winner passes of one probe_matrix call, worst case


def _ratio(value: float, opt: float) -> float:
    if opt > 0:
        return value / opt
    return 1.0 if value == 0 else math.inf


@dataclass(frozen=True)
class InefficiencyReport:
    mech: MechanismId
    opt: float
    worst_makespan: float
    best_makespan: float
    poa_ratio: float
    pos_ratio: float
    witnesses: dict

    def to_dict(self) -> dict:
        return {
            "mech": str(self.mech),
            "opt": self.opt,
            "worst_makespan": self.worst_makespan,
            "best_makespan": self.best_makespan,
            "poa_ratio": self.poa_ratio,
            "pos_ratio": self.pos_ratio,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


def inefficiency(mech: MechanismId, inst: Instance,
                 optimum: tuple | None = None) -> InefficiencyReport:
    """Worst/best equilibrium makespan against the optimum, with witnesses.

    Because the rules are task-independent, every combination of per-task
    equilibrium winners is realized by some whole-profile equilibrium, so the
    worst and best equilibrium makespans are masked assignment optimizations
    over the winner sets.  `optimum` is `opt_makespan(inst)`'s (value,
    witness) when the caller already has it.

    When every task's winner in the optimum's witness is in its winner set,
    the optimum is also the best equilibrium, value and witness, and no
    masked search runs: the search returns the float minimum over the
    assignments the mask admits, the witness is one of them, and the optimum
    is the float minimum over a superset, so the two values are the same
    float.  The best witness is then the optimum's, which may differ from the
    one a masked search would pick among equal-valued assignments.
    """
    mask = achievable_winners(mech, inst)
    opt, opt_w = opt_makespan(inst) if optimum is None else optimum
    worst, worst_w = opt_makespan_masked(inst, mask, "max")
    if all(map(frozenset.__contains__, mask.allowed, opt_w)):
        best, best_w = opt, opt_w
    else:
        best, best_w = opt_makespan_masked(inst, mask, "min")
    return InefficiencyReport(
        mech=mech,
        opt=opt,
        worst_makespan=worst,
        best_makespan=best,
        poa_ratio=_ratio(worst, opt),
        pos_ratio=_ratio(best, opt),
        witnesses={"opt": opt_w, "worst": worst_w, "best": best_w},
    )


# ---------------------------------------------------------------------------
# frontier sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrontierPoint:
    alpha: float
    poa_bound: float
    pos_bound: float
    poa_emp: float
    pos_emp: float


def _default_sweeps(n: int, alphas) -> dict:
    """The default suite, each member mapped to the indices of the alphas it
    is swept at: per alpha, tilde (meets the worst-case bound (n-1)*alpha + 1
    exactly) and a hat just past the reach (tracks the best-case bound from
    below); a member repeated by several alphas keeps its first place.

    The hat at alpha itself is no member, as it never sets a maximum under
    spa:alpha: its specialists sit on the closed bucket's edge, so its
    optimum is an equilibrium and its PoS is 1, and its worst case piles
    everything on the last machine, ((n-1) + alpha)/alpha = (n-1)/alpha + 1
    <= (n-1)*alpha + 1, tilde's.  A hat that is another alpha's hat past
    the reach (1.9 + 0.1 == 2.0) is swept at that alpha only."""
    sweeps = {}
    for k, alpha in enumerate(alphas):
        for name, at in (("tilde", alpha), ("hat", alpha + 0.1)):
            sweeps.setdefault(GeneratorSpec(name, (("n", n), ("alpha", at))), []).append(k)
    return sweeps


def _cut(text: str) -> str:
    """`text` for an error line, its middle cut to '...' past 60 characters."""
    return text if len(text) <= 60 else f"{text[:28]}...{text[-29:]}"


def frontier_sweep(n: int, alphas, suite=None) -> list:
    """One FrontierPoint per alpha (caller order), empirical columns maxed
    over the suite: `suite`, a list of GeneratorSpec shared by every alpha,
    or by default `_default_sweeps`' members at each alpha.  Each member must
    have n machines, since the bounds are n's.  The default sweeps only the
    members that can set a maximum: the paper's hat at alpha has PoS 1 and
    PoA (n-1)/alpha + 1 under spa:alpha, never above tilde's (n-1)*alpha + 1,
    so it is left out.

    One loop over the distinct members, in the order the sweep first meets
    them: each is built (a failed build is named), solved once, given one
    `inefficiency` report per alpha that sweeps it, and dropped."""
    if n < 2:
        raise ValueError("need n >= 2")
    alphas = [float(a) for a in alphas]
    if suite is not None and not suite:
        raise ValueError("the frontier suite is empty")
    mechs = [MechanismId.spa(a) for a in alphas]  # refuses bad alphas before any build
    if suite is None:
        sweeps = _default_sweeps(n, alphas)  # spec -> indices of its alphas
    else:
        sweeps = dict.fromkeys(suite, range(len(alphas)))
    poa_max = [-math.inf] * len(alphas)
    pos_max = [-math.inf] * len(alphas)
    for spec, ks in sweeps.items():
        try:
            inst = spec.build()
        except (ValueError, BudgetExceededError) as e:
            e.args = (f"suite instance {_cut(spec.label())}: {e}",)
            raise
        if inst.n != n:
            raise ValueError(f"suite instance {_cut(spec.label())} has {inst.n} "
                             f"machines, not n = {n}")
        optimum = opt_makespan(inst)
        for k in ks:
            report = inefficiency(mechs[k], inst, optimum)
            poa_max[k] = max(poa_max[k], report.poa_ratio)
            pos_max[k] = max(pos_max[k], report.pos_ratio)
    return [FrontierPoint(alpha, (n - 1) * alpha + 1, (n - 1) / alpha + 1, poa, pos)
            for alpha, poa, pos in zip(alphas, poa_max, pos_max)]


# ---------------------------------------------------------------------------
# robustness checks: monotone truth changes, anonymity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityResult:
    passed: bool
    trials: int
    direction: str
    failures: tuple  # (trial, task, machine, deviation, gain)


def monotonicity_check(mech: MechanismId, inst: Instance, cert: EquilibriumCertificate,
                       trials: int, seed: int, direction: str = "forward",
                       grid: Grid | None = None) -> MonotonicityResult:
    """Re-verify a certificate after sampled changes to the true times.

    forward: every won entry is scaled down (factor U(0,1)) and every lost
    non-sentinel entry scaled up (factor U(1,2)) -- the direction in which a
    pure equilibrium provably survives, so any failure is a bug.  reverse
    swaps the directions and is the negative control: it must be able to
    fail.  Bids never change; sentinel entries are left alone.  One `uniform`
    call draws every factor, trials first, then entries in row-major order.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError("direction must be 'forward' or 'reverse'")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if grid is None:
        grid = default_grid(inst, mech)
    import numpy as np

    rule = rule_for(mech, inst.n)
    forward = direction == "forward"
    live = [(i, j, t, (cert.winner[j] == i) == forward)  # (machine, task, time, down)
            for i, row in enumerate(inst.times) for j, t in enumerate(row)
            if not inst.is_sentinel(t)]
    draws = np.random.default_rng(seed).uniform(size=(trials, len(live))).tolist()
    truths = [list(col) for col in zip(*inst.times)]  # [task] -> true-time column
    columns = list(zip(*cert.profile))
    failures = []
    for trial, us in enumerate(draws):
        for (i, j, t, down), u in zip(live, us):
            truths[j][i] = t * u if down else t * (1.0 + u)
        for j, (col, bids) in enumerate(zip(truths, columns, strict=True)):
            res = verify_equilibrium(rule, col, bids, grid)
            if not res.ok:
                failures.append((trial, j, res.machine, res.deviation, res.gain))
    return MonotonicityResult(not failures, trials, direction, tuple(failures))


@dataclass(frozen=True)
class AnonymityResult:
    passed: bool
    counterexample: tuple | None  # (true_times, permutation, winner)
    checked: int


def anonymity_check(rule: SingleTaskRule, true_vectors, grid: Grid) -> AnonymityResult:
    """Equilibrium winner sets must commute with relabeling the machines.

    For each vector t and permutation pi, a machine w winning some equilibrium
    of t must reappear as winner pi^{-1}(w) in the permuted vector's
    equilibria.  Exhaustive over tie-free fixtures; costs 1 + n!
    enumerations per vector.
    """
    n = rule.n
    checked = 0
    for vec in true_vectors:
        vec = tuple(float(x) for x in vec)
        if len(vec) != n:
            raise ValueError(f"vector {vec} does not match n={n}")
        base = enumerate_equilibria(rule, vec, grid).winner_union()
        for perm in itertools.permutations(range(n)):
            permuted = tuple(vec[perm[k]] for k in range(n))
            image = enumerate_equilibria(rule, permuted, grid).winner_union()
            checked += 1
            for w in base:
                if perm.index(w) not in image:
                    return AnonymityResult(False, (vec, perm, w), checked)
    return AnonymityResult(True, None, checked)


# ---------------------------------------------------------------------------
# probe matrices
# ---------------------------------------------------------------------------

def probe_matrix(rule: SingleTaskRule, grid: Grid) -> tuple:
    """The rule's n x n winner-reach matrix, as a tuple of rows: a[i][j] is
    the largest probed time at which machine j still wins a task in some
    equilibrium while machine i is the unit-time fastest (0 on the diagonal
    and when no probe succeeded).

    Probes a = k*eps for k = 1..g-1 on a g-point grid with step eps, each
    one `enumerate_equilibria` call of n winner passes on the canonical
    single-task vector.  The rungs j wins form a prefix of that ladder: the
    probes change only t_j, the losers' conditions never read the winner's
    time, and j's own conditions read t_j only through t_j <= its pay (not
    asked when the second-lowest bid is the grid top), so a rung j wins is
    won at every lower time too.  One bisection per (fast, slow) pair
    therefore finds the prefix's length, at most
    n * n(n-1) * (g-1).bit_length() winner passes in all; past PROBE_BUDGET
    passes, or ENUMERATION_BUDGET bid pairs in the grid, BudgetExceededError
    is raised before anything is allocated.  Second price has no reserve,
    so probing it saturates the grid.  fp can hold one grid step past 1
    when the slow machine has the lower index (the tie-break protects it),
    so entries land within one step of the analytic boundary.
    """
    n, eps, g = rule.n, grid.step, len(grid)
    passes = n * n * (n - 1) * (g - 1).bit_length()
    if passes > PROBE_BUDGET:
        raise BudgetExceededError(f"{echo_count(passes)} winner passes of "
                                  f"{echo_count(n)}-machine ladders on a "
                                  f"{g}-point grid exceed the probe budget {PROBE_BUDGET}")
    a = [[0.0] * n for _ in range(n)]
    for i, j in itertools.permutations(range(n), 2):
        def lost(k):  # j wins no equilibrium at t_j = k*eps
            vec = gen_canonical(n, i, j, k * eps)
            return j not in enumerate_equilibria(rule, vec, grid).winner_union()
        a[i][j] = bisect.bisect_left(range(1, g), True, key=lost) * eps
    return tuple(tuple(r) for r in a)


# ---------------------------------------------------------------------------
# scalar inequality checks
# ---------------------------------------------------------------------------

def check_tech1(x: float, y: float, beta: float, gamma: float) -> bool:
    """(x + beta*y) / max(x, gamma*y) <= beta/gamma + 1 for x, y >= 0 not both 0."""
    if x < 0 or y < 0:
        raise ValueError("x and y must be >= 0")
    if not (beta > 0 and gamma > 0):
        raise ValueError("beta and gamma must be positive")
    denom = max(x, gamma * y)
    if denom == 0:
        raise ValueError("x and y cannot both be 0")
    return (x + beta * y) / denom <= beta / gamma + 1


class CombiPremiseError(ValueError):
    """The matrix/eps arguments violate the combinatorial bound's premises."""


def combi_row_best(a, i: int, eps: float) -> float:
    """max over nonempty subsets I of the other columns of |I| / (max_{j in I}
    a[i][j] + eps).  The maximizing subset of each size takes the smallest
    entries, so sorting the row suffices."""
    row = sorted(a[i][j] for j in range(len(a)) if j != i)
    return max((k + 1) / (row[k] + eps) for k in range(len(row)))


def check_combi(a, alpha: float, eps: float) -> tuple:
    """Some row i must beat (n-1)/(alpha*sqrt(2)) -- returns (ok, witness i).

    Premises (raising CombiPremiseError when violated): square matrix, zero
    diagonal, positive off-diagonal, every column sum strictly below
    (n-1)*alpha/sqrt(2), and 0 < eps <= alpha/((n-1)*sqrt(2)).
    """
    n = len(a)
    if n < 2 or any(len(row) != n for row in a):
        raise CombiPremiseError("need a square matrix, n >= 2")
    if not alpha > 0:
        raise CombiPremiseError("alpha must be positive")
    for i in range(n):
        if a[i][i] != 0:
            raise CombiPremiseError(f"diagonal entry a[{i}][{i}] must be 0")
        for j in range(n):
            if j != i and not a[i][j] > 0:
                raise CombiPremiseError(f"off-diagonal a[{i}][{j}] must be positive")
    col_limit = (n - 1) * alpha / SQRT2
    for j in range(n):
        s = sum(a[i][j] for i in range(n))
        if not s < col_limit:
            raise CombiPremiseError(
                f"column {j} sums to {s}, needs < (n-1)*alpha/sqrt(2) = {col_limit}"
            )
    if not 0 < eps <= alpha / ((n - 1) * SQRT2):
        raise CombiPremiseError(
            f"eps must be in (0, alpha/((n-1)*sqrt(2)) = {alpha / ((n - 1) * SQRT2)}]"
        )
    threshold = (n - 1) / (alpha * SQRT2)
    for i in range(n):
        if combi_row_best(a, i, eps) > threshold:
            return True, i
    return False, None


# ---------------------------------------------------------------------------
# named verification suites (shared by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteReport:
    passed: bool
    lines: tuple


# fixed sizes of the verify suites
BUCKET_ALPHAS = (1.5, 2.0, 3.0)
BUCKET_N = 3
BUCKET_VECTORS = 50  # per alpha
MONOTONICITY_TRIALS = 200
TECH1_COUNT = 100_000
COMBI_COUNT = 1000


def bucket_equivalence_check(seed: int) -> SuiteReport:
    """Grid-enumeration ground truth for the spa winner sets.

    Draws BUCKET_VECTORS vectors of GRID_STEP multiples in [0.1, 4.0], the
    lattice `gen_random` draws from, per alpha and checks that the enumerated
    equilibrium winner set equals `achievable_winners`'s closed bucket for
    every alpha.  Exact set equality.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    lines = []
    mismatches = 0
    for alpha in BUCKET_ALPHAS:
        mech = MechanismId.spa(alpha)
        rule = rule_for(mech, BUCKET_N)
        for v in range(BUCKET_VECTORS):
            vec = tuple(k * GRID_STEP for k in rng.integers(1, 41, size=BUCKET_N).tolist())
            grid = default_grid(vec, mech)
            enum = enumerate_equilibria(rule, vec, grid).winner_union()
            bucket = achievable_winners(mech, Instance(tuple((t,) for t in vec))).allowed[0]
            if enum != bucket:
                mismatches += 1
                lines.append(
                    f"  mismatch alpha={alpha} vec={vec}: enumerated {sorted(enum)}, "
                    f"bucket {sorted(bucket)}"
                )
        lines.append(f"  alpha={alpha}: {BUCKET_VECTORS} vectors checked")
    return SuiteReport(mismatches == 0, tuple(lines))


MONOTONICITY_INSTANCES = (
    "uniform-2", "uniform-3", "tradeoff-3-1.5", "fp_pos-3-0.01", "hat-3-2",
    "tilde-3-2", "random-2x3-101", "random-3x4-201", "random-3x4-202",
    "random-3x5-301",
)


def monotonicity_suite(seed: int, direction: str = "forward") -> SuiteReport:
    """Canonical certificates for fp, sp, spa:2 on ten named instances, each
    re-verified under MONOTONICITY_TRIALS sampled truth modifications.  forward must be
    failure-free; reverse must produce at least one failure overall."""
    chosen = dict(regression_suite())
    mechs = (MechanismId.fp(), MechanismId.sp(), MechanismId.spa(2.0))
    lines = []
    total_failures = 0
    for label in MONOTONICITY_INSTANCES:
        inst = chosen[label]
        for mech in mechs:
            grid = default_grid(inst, mech)
            cert = canonical_certificate(mech, inst, grid)
            res = monotonicity_check(mech, inst, cert, MONOTONICITY_TRIALS, seed,
                                     direction, grid)
            total_failures += len(res.failures)
            lines.append(
                f"  {label} {mech}: {MONOTONICITY_TRIALS} trials, {len(res.failures)} failures"
            )
    if direction == "forward":
        passed = total_failures == 0
    else:
        passed = total_failures >= 1  # the negative control must fire
    return SuiteReport(passed, tuple(lines))


def anonymity_suite() -> SuiteReport:
    """Tie-free two-machine fixtures for fp and spa:2."""
    fixtures = [
        (MechanismId.fp(), ((1.0, 2.0), (0.5, 1.5))),
        (MechanismId.spa(2.0), ((1.0, 1.9), (0.5, 1.2))),
    ]
    lines = []
    ok = True
    for mech, vectors in fixtures:
        rule = rule_for(mech, 2)
        entries = {x for vec in vectors for x in vec}
        grid = default_grid(entries, mech, GRID_STEP, max(4.0, 2 * max(entries) + 0.2))
        res = anonymity_check(rule, vectors, grid)
        ok = ok and res.passed
        lines.append(f"  {mech}: {res.checked} permuted enumerations, "
                     f"{'ok' if res.passed else f'fails at {res.counterexample}'}")
    return SuiteReport(ok, tuple(lines))


def tech1_fuzz(seed: int) -> SuiteReport:
    import numpy as np

    rng = np.random.default_rng(seed)
    xs, ys = rng.uniform(0.0, 10.0, size=(2, TECH1_COUNT)).tolist()
    betas, gammas = rng.uniform(0.1, 10.0, size=(2, TECH1_COUNT)).tolist()
    for x, y, beta, gamma in zip(xs, ys, betas, gammas):
        if x == 0.0 and y == 0.0:
            continue
        if not check_tech1(x, y, beta, gamma):
            return SuiteReport(False, (f"  fails at x={x} y={y} beta={beta} gamma={gamma}",))
    return SuiteReport(True, (f"  {TECH1_COUNT} random tuples hold",))


CIRCULANT_CASES = ((2, 2.0, 0.9), (3, 2.0, 0.6), (4, 1.5, 0.5), (5, 3.0, 0.4))


def combi_fuzz(seed: int) -> SuiteReport:
    """Random premise-satisfying matrices must all satisfy the bound; the
    circulant family must satisfy it and attain it to 1e-9 at eps = 0."""
    import numpy as np

    rng = np.random.default_rng(seed)
    lines = []
    for k in range(COMBI_COUNT):
        n = int(rng.integers(2, 6))
        alpha = float(rng.uniform(1.0, 4.0))
        raw = rng.uniform(0.05, 1.0, size=(n, n)).tolist()
        col_limit = (n - 1) * alpha / SQRT2
        scale = [col_limit * float(rng.uniform(0.3, 0.95))  # one draw per column, in order
                 / sum(raw[i][j] for i in range(n) if i != j) for j in range(n)]
        a = [[raw[i][j] * scale[j] if i != j else 0.0 for j in range(n)] for i in range(n)]
        eps = alpha / ((n - 1) * SQRT2) * float(rng.uniform(0.1, 1.0))
        ok, _ = check_combi(a, alpha, eps)
        if not ok:
            return SuiteReport(False, (f"  bound fails on random matrix #{k} (n={n}, "
                                       f"alpha={alpha})",))
    lines.append(f"  {COMBI_COUNT} random premise-satisfying matrices hold")
    for n, alpha, delta in CIRCULANT_CASES:
        a = gen_circulant(n, alpha, delta)
        eps = alpha / ((n - 1) * SQRT2)
        ok, _ = check_combi(a, alpha, eps)
        if not ok:
            return SuiteReport(False, (f"  circulant n={n} alpha={alpha} delta={delta} fails",))
        attained = max(combi_row_best(a, i, 0.0) for i in range(n))
        target = (n - 1) / (alpha * (SQRT2 - delta))
        if abs(attained - target) > 1e-9:
            return SuiteReport(False, (f"  circulant n={n} tightness off: "
                                       f"{attained} vs {target}",))
        lines.append(f"  circulant n={n} alpha={alpha} delta={delta}: bound holds, "
                     f"eps=0 value within 1e-9 of {target:.6g}")
    return SuiteReport(True, tuple(lines))


VERIFY_SUITES = {
    "buckets": bucket_equivalence_check,
    "monotonicity": monotonicity_suite,
    "monotonicity-reverse": lambda seed: monotonicity_suite(seed, "reverse"),
    "anonymity": lambda seed: anonymity_suite(),
    "tech1": tech1_fuzz,
    "combi": combi_fuzz,
}
SEEDLESS_SUITES = frozenset({"anonymity"})  # their entries above drop the seed
