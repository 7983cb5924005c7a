"""The benchmark's workloads: seeded request pools, one request, and the
check of its answer.

Each workload drives mechfront only through public entry points.  A request's
inputs are drawn from the run's seed before timing starts; `call` is the
timed part and `check` runs after the timer stops.  Checkers are plain
functions of (request, answer) so the benchmark's own tests can feed them
tampered answers.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass

from mechfront import analysis, cli, equilibria, instances, rules
from mechfront.model import Instance, MechanismId

N = 3  # machines in every workload
STEP = 0.1  # bid-grid step, and the lattice the inputs are drawn on
FRONTIER_HEADER = "alpha,poa_bound,pos_bound,poa_emp,pos_emp"
ENUMERATE_MECHS = ("fp", "sp", "spa:1.5", "spa:2", "spa:3")
VERIFY_MECHS = ("fp", "sp", "spa:2")
VERIFY_TRIALS = 20


@dataclass(frozen=True)
class Refusal:
    """A request the program declined with an honest error; counted as failed
    but not as a wrong answer."""

    reason: str


# ---------------------------------------------------------------------------
# frontier: `mechfront frontier -n 3 --alphas a,b,c,d` in process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrontierRequest:
    alphas: tuple  # four distinct floats on the 0.1 lattice in [1, 4]

    def argv(self) -> list:
        return ["frontier", "-n", str(N), "--alphas", ",".join(f"{a:g}" for a in self.alphas)]


def frontier_pool(rnd: random.Random, size: int) -> list:
    return [FrontierRequest(tuple(k / 10 for k in rnd.sample(range(10, 41), 4)))
            for _ in range(size)]


def frontier_call(req: FrontierRequest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(req.argv())
    return rc, out.getvalue()


def frontier_check(req: FrontierRequest, answer) -> str | None:
    rc, text = answer
    if rc != 0:
        return f"exit code {rc}"
    lines = text.splitlines()
    if not lines or lines[0] != FRONTIER_HEADER:
        return "header mismatch"
    rows = lines[1:]
    alphas = sorted(req.alphas)
    if len(rows) != len(alphas):
        return f"{len(rows)} rows for {len(alphas)} alphas"
    for a, row in zip(alphas, rows):
        cols = row.split(",")
        if len(cols) != 5:
            return f"row {row!r} has {len(cols)} columns"
        alpha, poa_bound, pos_bound, poa_emp, pos_emp = cols
        if alpha != f"{a:.6g}":
            return f"alpha column {alpha} != {a:.6g}"
        if poa_bound != f"{(N - 1) * a + 1:.6g}":
            return f"alpha {a}: poa_bound {poa_bound} != (n-1)*A+1"
        if pos_bound != f"{(N - 1) / a + 1:.6g}":
            return f"alpha {a}: pos_bound {pos_bound} != (n-1)/A+1"
        try:
            if not float(poa_emp) <= float(poa_bound):
                return f"alpha {a}: poa_emp {poa_emp} above its bound {poa_bound}"
            if not float(pos_emp) <= float(pos_bound):
                return f"alpha {a}: pos_emp {pos_emp} above its bound {pos_bound}"
        except ValueError:
            return f"row {row!r} is not numeric"
        # the default suite's tilde member attains the worst-case bound
        if a > 1 and poa_emp != poa_bound:
            return f"alpha {a}: poa_emp {poa_emp} misses the attained bound {poa_bound}"
    return None


# ---------------------------------------------------------------------------
# enumerate: one task's exhaustive grid scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnumerateRequest:
    mech: MechanismId
    ks: tuple  # true times as multiples of STEP, each in 1..40

    @property
    def vec(self) -> tuple:
        # float(k) * STEP is the product Grid and gen_random generate, so
        # anchored grid points and the true times agree bit for bit
        return tuple(float(k) * STEP for k in self.ks)


def _stratified_max(u: float, top: int) -> int:
    """Inverse CDF of the largest of N uniform draws from 1..top."""
    k = 1
    while (k / top) ** N < u:
        k += 1
    return k


def enumerate_pool(rnd: random.Random, size: int) -> list:
    """Vectors of N uniform draws from 1..40 (criterion 01's range), with
    the largest entry fixed per stratum and mechanism.

    The scan's cost grows as g^N with g the grid size, and g follows the
    largest entry alone, so pools of a few hundred requests whose largest
    entries are drawn at random differ in total cost, and in which grid size
    sits at the median request, from seed to seed by more than the
    benchmark's bounds.  Each mechanism therefore takes the largest entry at
    the midpoint of each of its strata of the distribution of the maximum of
    N draws: every seed scans the same grid sizes.  The seed draws the other
    entries, uniformly given the largest, and the order.
    """
    per_mech = max(1, size // len(ENUMERATE_MECHS))
    pool = []
    for text in ENUMERATE_MECHS:
        mech = MechanismId.parse(text)
        for r in range(per_mech):
            top = _stratified_max((r + 0.5) / per_mech, 40)
            while True:
                ks = tuple(rnd.randint(1, top) for _ in range(N))
                if max(ks) == top:
                    break
            pool.append(EnumerateRequest(mech, ks))
    rnd.shuffle(pool)
    return pool[:size]


def enumerate_call(req: EnumerateRequest) -> frozenset:
    vec = req.vec
    rule = rules.rule_for(req.mech, N)
    result = equilibria.enumerate_equilibria(rule, vec, equilibria.default_grid(vec, req.mech))
    return result.winner_union()


def enumerate_check(req: EnumerateRequest, winners) -> str | None:
    if req.mech.kind == "fp":
        # On the grid the runner-up one step above the fastest can win at
        # utility 0 (the fastest cannot undercut it by less than a step), so
        # fp is checked against a band, not the closed form's argmin set.
        k_min = min(req.ks)
        lower = {i for i, k in enumerate(req.ks) if k == k_min}
        upper = {i for i, k in enumerate(req.ks) if k <= k_min + 1}
        if not lower <= set(winners) <= upper:
            return (f"fp {req.vec}: winners {sorted(winners)} outside "
                    f"[{sorted(lower)}, {sorted(upper)}]")
        return None
    inst = Instance(tuple((t,) for t in req.vec))
    expected = equilibria.achievable_winners(req.mech, inst).allowed[0]
    if frozenset(winners) != expected:
        return (f"{req.mech} {req.vec}: enumerated {sorted(winners)}, "
                f"closed form {sorted(expected)}")
    return None


# ---------------------------------------------------------------------------
# verify: canonical certificate plus a monotonicity re-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyRequest:
    mech: MechanismId
    inst: Instance
    direction: str
    trial_seed: int


def verify_pool(rnd: random.Random, size: int) -> list:
    """Mechanism cycles with period 3, task count m in 3..5 with period 9,
    and every fifth request is the reverse (negative-control) direction, so
    each pass covers every combination in fixed proportions."""
    pool = []
    for k in range(size):
        mech = MechanismId.parse(VERIFY_MECHS[k % 3])
        m = 3 + (k // 3) % 3
        inst = instances.gen_random(N, m, rnd.randrange(2 ** 31))
        direction = "reverse" if k % 5 == 4 else "forward"
        pool.append(VerifyRequest(mech, inst, direction, rnd.randrange(2 ** 31)))
    return pool


def verify_call(req: VerifyRequest):
    grid = equilibria.default_grid(req.inst, req.mech)
    try:
        cert = equilibria.canonical_certificate(req.mech, req.inst, grid)
    except ValueError as e:
        # Known defect, counted and not filtered: fp builds the losers' bid
        # as the float sum t_min + step instead of the grid's own point.
        return Refusal(str(e))
    return analysis.monotonicity_check(req.mech, req.inst, cert, VERIFY_TRIALS,
                                       req.trial_seed, req.direction, grid)


def verify_check(req: VerifyRequest, result) -> str | None:
    if result.direction != req.direction or result.trials != VERIFY_TRIALS:
        return f"result is for {result.direction} x {result.trials}"
    if req.direction == "forward" and not result.passed:
        return f"{req.mech} forward monotonicity failed: {result.failures[:3]}"
    return None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    pool: object  # (random.Random, size) -> list of requests
    pool_size: int  # requests per pass
    call: object  # request -> answer or Refusal (timed)
    check: object  # (request, answer) -> None or the reason it is wrong
    layers: tuple  # span names the traced run must record
    absent: tuple  # span-name prefixes the traced run must not record


WORKLOADS = {
    "frontier": Workload(
        "frontier", frontier_pool, 10, frontier_call, frontier_check,
        layers=("cli.run", "analysis.frontier_sweep", "analysis.inefficiency",
                "optsolver.opt_makespan", "optsolver.masked_min",
                "optsolver.masked_max", "equilibria.achievable_winners",
                "instances.build", "model.instance_init"),
        absent=("equilibria.enumerate_equilibria",),
    ),
    "enumerate": Workload(
        "enumerate", enumerate_pool, 200, enumerate_call, enumerate_check,
        layers=("equilibria.enumerate_equilibria", "rules.batch",
                "equilibria.default_grid"),
        absent=("optsolver.",),
    ),
    "verify": Workload(
        "verify", verify_pool, 360, verify_call, verify_check,
        layers=("equilibria.canonical_certificate", "analysis.monotonicity_check",
                "equilibria.verify_equilibrium", "rules.batch", "rules.outcome",
                "equilibria.default_grid"),
        absent=("optsolver.", "equilibria.enumerate_equilibria"),
    ),
}


def run_level_check(name: str, pool_results) -> str | None:
    """Checks over one pass, which every later pass repeats.  `pool_results`
    pairs each request with its answer.  verify's reverse direction is the
    negative control: it must find at least one failure."""
    if name != "verify":
        return None
    fired = sum(len(ans.failures) for req, ans in pool_results
                if req.direction == "reverse" and isinstance(ans, analysis.MonotonicityResult))
    if fired < 1:
        return "the reverse negative control found no failure"
    return None
